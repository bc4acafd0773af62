#include "net/latency_matrix.hpp"

#include <stdexcept>

namespace p2panon::net {

LatencyMatrix LatencyMatrix::synthetic(std::size_t num_nodes, Rng rng,
                                       SimDuration target_mean_rtt) {
  if (num_nodes == 0) {
    throw std::invalid_argument("LatencyMatrix: need at least one node");
  }
  // Coordinates on a unit square model geographic spread; the per-node
  // access delay is Pareto-distributed to capture the long tail of
  // last-mile links seen in the King measurements.
  LatencyMatrix matrix;
  matrix.coords_.resize(num_nodes);
  for (auto& c : matrix.coords_) {
    c.x = rng.next_double();
    c.y = rng.next_double();
    c.access = rng.pareto(2.2, 1.0) - 1.0;  // mean ~0.83, heavy tail
  }

  // One scale for every pair, calibrated from the raw mean RTT. The sum
  // runs over a < b in this order so the scale is the same double however
  // the delays are later read.
  const std::vector<Coord>& coords = matrix.coords_;
  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t a = 0; a < num_nodes; ++a) {
    for (std::size_t b = a + 1; b < num_nodes; ++b) {
      sum += 2.0 * raw_delay(coords[a], coords[b]);  // both directions
      ++pairs;
    }
  }
  if (pairs > 0) {
    const double mean_raw_rtt = sum / static_cast<double>(pairs);
    matrix.scale_ = static_cast<double>(target_mean_rtt) / mean_raw_rtt;
  }
  return matrix;
}

SimDuration LatencyMatrix::mean_rtt() const {
  const std::size_t n = coords_.size();
  if (n < 2) return 0;
  long double sum = 0.0L;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) {
        sum += static_cast<long double>(one_way(static_cast<NodeId>(a),
                                                static_cast<NodeId>(b))) *
               2.0L;
      }
    }
  }
  const long double pairs = static_cast<long double>(n) * (n - 1);
  // Each ordered pair contributes its one-way delay twice (there and back),
  // but we also counted each ordered pair once, so normalize accordingly.
  return static_cast<SimDuration>(sum / pairs);
}

}  // namespace p2panon::net
