#include "anon/mix_selector.hpp"

#include <unordered_set>

namespace p2panon::anon {

const char* to_string(MixChoice choice) {
  return choice == MixChoice::kRandom ? "random" : "biased";
}

std::optional<std::vector<std::vector<NodeId>>> MixSelector::select_paths(
    const membership::NodeCache& cache, std::size_t paths,
    std::size_t path_length, SimTime now, NodeId initiator,
    NodeId responder, const std::vector<NodeId>& extra_exclude) {
  const std::size_t need = paths * path_length;
  std::unordered_set<NodeId> exclude = {initiator, responder};
  exclude.insert(extra_exclude.begin(), extra_exclude.end());

  // Both modes honor behavioral quarantine when the cache tracks
  // suspicion (corruption resilience): a node over the quarantine
  // threshold is never selected, random or biased, until it decays clean.
  // Biased choice additionally demotes non-quarantined suspects inside
  // top_by_predictor (score = q / (1 + penalty * s)). With suspicion off
  // (the default) neither call reads it.
  std::vector<NodeId> picked;
  switch (choice_) {
    case MixChoice::kRandom:
      picked = cache.sample_known(need, rng_, exclude, now,
                                  /*honor_quarantine=*/true);
      break;
    case MixChoice::kBiased:
      ++biased_selects_;
      // Staleness-aware degradation: when too much of the cache is stale,
      // the Eq. 3 ranking is noise — sample uniformly instead and let the
      // bias return as repair freshens the records. Off by default, in
      // which case no age scan runs and no RNG is drawn.
      if (staleness_aware_) {
        const auto ages = cache.age_stats(now, kStaleAfter);
        if (ages.stale_fraction > kDegradeFraction) {
          ++stale_fallbacks_;
          picked = cache.sample_known(need, rng_, exclude, now,
                                      /*honor_quarantine=*/true);
          break;
        }
      }
      picked = cache.top_by_predictor(need, now, exclude);
      break;
  }
  if (picked.size() < need) return std::nullopt;

  // Breadth-first deal: relay slot (i, j) gets picked[i * paths + j], so
  // for biased choice the best nodes spread evenly across the k paths.
  std::vector<std::vector<NodeId>> out(paths);
  for (std::size_t j = 0; j < paths; ++j) out[j].reserve(path_length);
  for (std::size_t i = 0; i < path_length; ++i) {
    for (std::size_t j = 0; j < paths; ++j) {
      out[j].push_back(picked[i * paths + j]);
    }
  }
  return out;
}

}  // namespace p2panon::anon
