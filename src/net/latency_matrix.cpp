#include "net/latency_matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace p2panon::net {

LatencyMatrix::LatencyMatrix(std::size_t num_nodes,
                             std::vector<SimDuration> delays)
    : n_(num_nodes), delays_(std::move(delays)) {}

LatencyMatrix LatencyMatrix::synthetic(std::size_t num_nodes, Rng rng,
                                       SimDuration target_mean_rtt) {
  if (num_nodes == 0) {
    throw std::invalid_argument("LatencyMatrix: need at least one node");
  }
  // Coordinates on a unit square model geographic spread; the per-node
  // access delay is Pareto-distributed to capture the long tail of
  // last-mile links seen in the King measurements.
  struct Coord {
    double x, y, access;
  };
  std::vector<Coord> coords(num_nodes);
  for (auto& c : coords) {
    c.x = rng.next_double();
    c.y = rng.next_double();
    c.access = rng.pareto(2.2, 1.0) - 1.0;  // mean ~0.83, heavy tail
  }

  std::vector<double> raw(num_nodes * num_nodes, 0.0);
  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t a = 0; a < num_nodes; ++a) {
    for (std::size_t b = a + 1; b < num_nodes; ++b) {
      const double dx = coords[a].x - coords[b].x;
      const double dy = coords[a].y - coords[b].y;
      const double propagation = std::sqrt(dx * dx + dy * dy);
      const double delay = propagation + 0.35 * (coords[a].access + coords[b].access);
      raw[a * num_nodes + b] = delay;
      raw[b * num_nodes + a] = delay;
      sum += 2.0 * delay;  // both one-way directions of the RTT
      ++pairs;
    }
  }

  std::vector<SimDuration> delays(num_nodes * num_nodes, 0);
  if (pairs > 0) {
    const double mean_raw_rtt = sum / static_cast<double>(pairs);
    const double scale =
        static_cast<double>(target_mean_rtt) / mean_raw_rtt;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      delays[i] = static_cast<SimDuration>(raw[i] * scale);
    }
  }
  return LatencyMatrix(num_nodes, std::move(delays));
}

SimDuration LatencyMatrix::mean_rtt() const {
  if (n_ < 2) return 0;
  long double sum = 0.0L;
  for (std::size_t a = 0; a < n_; ++a) {
    for (std::size_t b = 0; b < n_; ++b) {
      if (a != b) sum += static_cast<long double>(delays_[a * n_ + b]) * 2.0L;
    }
  }
  const long double pairs = static_cast<long double>(n_) * (n_ - 1);
  // Each ordered pair contributes its one-way delay twice (there and back),
  // but we also counted each ordered pair once, so normalize accordingly.
  return static_cast<SimDuration>(sum / pairs);
}

}  // namespace p2panon::net
