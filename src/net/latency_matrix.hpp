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
#pragma once

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

  /// One-way network delay from a to b. Symmetric by construction.
  SimDuration one_way(NodeId a, NodeId b) const {
    return delays_[static_cast<std::size_t>(a) * n_ + b];
  }

  SimDuration rtt(NodeId a, NodeId b) const {
    return one_way(a, b) + one_way(b, a);
  }

  std::size_t num_nodes() const { return n_; }

  /// Heap footprint of the delay table — the repo's canonical O(N²)
  /// structure, reported per-subsystem by the capacity byte census.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(delays_.capacity()) *
           sizeof(SimDuration);
  }

  /// Mean RTT over all ordered pairs (a != b).
  SimDuration mean_rtt() const;

 private:
  /// Takes explicit one-way delays; `delays` is row-major N x N.
  LatencyMatrix(std::size_t num_nodes, std::vector<SimDuration> delays);

  std::size_t n_;
  std::vector<SimDuration> delays_;
};

}  // namespace p2panon::net
