// Analytic bandwidth-cost model (paper §6.1 metric 2, Figure 4).
//
// A message of |M| bytes sent as SimEra(k, r) over paths of L relays costs,
// when every path delivers,
//
//   cost = k * (|M| * r / k) * (L + 1) = |M| * r * (L + 1)
//
// payload bytes (each of the k paths carries |M| r / k bytes across L
// relay hops plus the hop to the responder). The *expected* cost under the
// Bernoulli path model accounts for paths that die partway: a failed path
// is assumed to carry its segments half the hops on average. Framing and
// crypto overheads are the wire's (anon::wire::payload_path_bytes), not
// this model's.
#pragma once

#include <cstddef>

namespace p2panon::analysis {

struct BandwidthModel {
  std::size_t message_size = 1024;  // |M| bytes
  std::size_t path_length = 3;      // L

  /// Bytes per path when all k paths are used: |M| * r / k.
  double per_path_payload(std::size_t k, double r) const;

  /// Total cost when all k paths deliver (the Figure 4 curve).
  double full_delivery_cost(std::size_t k, double r) const;

  /// Expected cost when each path independently survives with prob p and a
  /// dead path carries its data `partial_fraction` of the hops.
  double expected_cost(std::size_t k, double r, double p,
                       double partial_fraction = 0.5) const;
};

}  // namespace p2panon::analysis
