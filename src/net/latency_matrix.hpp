// All-pairs network latency model.
//
// The paper uses a matrix measured with the King method over 1024 DNS
// servers (mean RTT 152 ms). That trace is not redistributable, so we
// substitute a synthetic matrix: nodes get coordinates in a 2-D Euclidean
// space plus a per-node heavy-tailed access-link delay, and the whole matrix
// is rescaled so the mean RTT matches a calibration target. This preserves
// the properties the experiments rely on — triangle-inequality-ish
// structure, heterogeneity across pairs, and the 152 ms mean (DESIGN.md
// "Substitutions").
//
// Only the N coordinates and the scale are stored: a delay is computed from
// its two endpoints when it is asked for, so the model is O(N) in memory.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

namespace p2panon::net {

class LatencyMatrix {
 public:
  /// Generates a synthetic King-like matrix for `num_nodes`, rescaled so
  /// that the mean RTT equals `target_mean_rtt` (the paper's 152 ms).
  static LatencyMatrix synthetic(std::size_t num_nodes, Rng rng,
                                 SimDuration target_mean_rtt = from_millis(152));

  /// One-way network delay from a to b. Symmetric bit for bit: swapping
  /// the endpoints only negates dx and dy and reorders one addition.
  SimDuration one_way(NodeId a, NodeId b) const {
    if (a == b) return 0;
    return static_cast<SimDuration>(raw_delay(coords_[a], coords_[b]) *
                                    scale_);
  }

  std::size_t num_nodes() const { return coords_.size(); }

  /// Heap footprint of the per-node coordinates, reported per-subsystem by
  /// the capacity byte census. Linear in N.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(coords_.capacity()) * sizeof(Coord);
  }

  /// Mean RTT over all ordered pairs (a != b).
  SimDuration mean_rtt() const;

 private:
  struct Coord {
    double x, y, access;
  };

  LatencyMatrix() = default;  // built only by synthetic()

  /// Unscaled one-way delay: propagation over the plane plus a share of
  /// both access links.
  static double raw_delay(const Coord& a, const Coord& b) {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return std::sqrt(dx * dx + dy * dy) + 0.35 * (a.access + b.access);
  }

  std::vector<Coord> coords_;
  double scale_ = 0.0;  // raw delay -> SimDuration
};

}  // namespace p2panon::net
