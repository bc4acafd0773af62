#include "analysis/bandwidth_model.hpp"

#include <stdexcept>

namespace p2panon::analysis {

double BandwidthModel::per_path_payload(std::size_t k, double r) const {
  if (k == 0 || r < 1.0) {
    throw std::invalid_argument("need k >= 1 and r >= 1");
  }
  return static_cast<double>(message_size) * r / static_cast<double>(k);
}

double BandwidthModel::full_delivery_cost(std::size_t k, double r) const {
  const double hops = static_cast<double>(path_length + 1);
  return static_cast<double>(k) * per_path_payload(k, r) * hops;
}

double BandwidthModel::expected_cost(std::size_t k, double r, double p,
                                     double partial_fraction) const {
  const double hops = static_cast<double>(path_length + 1);
  const double per_path = per_path_payload(k, r);
  const double alive_cost = per_path * hops;
  const double dead_cost = per_path * hops * partial_fraction;
  return static_cast<double>(k) *
         (p * alive_cost + (1.0 - p) * dead_cost);
}

}  // namespace p2panon::analysis
