// Mix (relay) selection (paper §4.9 "Biased Mix Choice").
//
// Selects the k * L distinct relay nodes for a path set from the
// initiator's NodeCache:
//   - Random: uniform over all known nodes, ignoring liveness entirely —
//     how the paper characterizes existing mix-based protocols.
//   - Biased: the nodes with the highest Eq. 3 liveness predictor.
// The initiator and responder are always excluded, and the k paths are
// node-disjoint by construction.
//
// Corruption resilience: when the cache has suspicion tracking enabled
// (NodeCache::enable_suspicion), quarantined nodes are excluded from both
// modes and biased choice scores candidates q / (1 + penalty * suspicion),
// routing around relays that corrupted or stalled traffic the same way the
// paper routes around dead ones. Off by default — selection then draws and
// ranks exactly as the seed did.
#pragma once

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "membership/node_cache.hpp"

namespace p2panon::anon {

enum class MixChoice { kRandom, kBiased };

const char* to_string(MixChoice choice);

/// Staleness-aware degradation (control-plane resilience, DESIGN §9).
/// Biased choice is only as good as the liveness data behind it: after a
/// gossip blackout the Eq. 3 ranking is computed over fossils, and
/// confidently picking the "longest-lived" node from a stale cache is
/// worse than admitting ignorance. When more than kDegradeFraction of the
/// known-alive records are older than kStaleAfter, a staleness-aware
/// selector's biased choice falls back to the random sampler for that
/// decision, and recovers the bias as anti-entropy repair freshens the
/// cache back under the threshold.
constexpr SimDuration kStaleAfter = 2 * kMinute;
constexpr double kDegradeFraction = 0.5;

class MixSelector {
 public:
  /// `staleness_aware` turns on the degradation above; off, selection
  /// draws and ranks exactly as the seed did.
  MixSelector(MixChoice choice, Rng rng, bool staleness_aware = false)
      : choice_(choice), rng_(rng), staleness_aware_(staleness_aware) {}

  /// Picks `paths * path_length` distinct relays and splits them into
  /// `paths` disjoint relay lists of length `path_length`. Returns nullopt
  /// if the cache has too few eligible nodes.
  ///
  /// For biased choice the best nodes go breadth-first across paths (path
  /// j gets the (j)th, (k+j)th, ... best), so path quality is as even as a
  /// top-q selection allows.
  std::optional<std::vector<std::vector<NodeId>>> select_paths(
      const membership::NodeCache& cache, std::size_t paths,
      std::size_t path_length, SimTime now, NodeId initiator,
      NodeId responder,
      const std::vector<NodeId>& extra_exclude = {});

  MixChoice choice() const { return choice_; }

  /// How many biased selections fell back to random because the cache was
  /// stale, and how many biased selections ran in total.
  std::uint64_t stale_fallbacks() const { return stale_fallbacks_; }
  std::uint64_t biased_selects() const { return biased_selects_; }

 private:
  MixChoice choice_;
  Rng rng_;
  bool staleness_aware_;
  std::uint64_t stale_fallbacks_ = 0;
  std::uint64_t biased_selects_ = 0;
};

}  // namespace p2panon::anon
