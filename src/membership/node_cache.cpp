#include "membership/node_cache.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p2panon::membership {

namespace {
// Bounded trust: tolerance added to every liveness bound before a claim
// counts as inflated, and the suspicion filed against its subject.
constexpr SimDuration kClaimSlack = 30 * kSecond;
constexpr double kInflationSuspicion = 0.5;
// Behavioral suspicion: scores halve every kSuspicionHalfLife, a decayed
// score at or above kQuarantineThreshold excludes the node from mix
// selection, and biased choice scores candidates q / (1 + kBiasPenalty * s).
constexpr SimDuration kSuspicionHalfLife = 5 * kMinute;
constexpr double kQuarantineThreshold = 2.0;
constexpr double kBiasPenalty = 1.0;

void check_range(NodeId node, std::size_t capacity) {
  if (node >= capacity) throw std::out_of_range("NodeCache: node id");
}
}  // namespace

NodeCache::NodeCache(std::size_t num_nodes)
    : flags_(num_nodes), times_(num_nodes) {}

void NodeCache::heard_directly(NodeId node, SimDuration dt_alive,
                               SimTime now) {
  check_range(node, flags_.size());
  MergeStats tally;
  merge(node, LivenessInfo{dt_alive, 0, true}, /*direct=*/true, now, tally);
  add_tally(tally);
}

void NodeCache::heard_left_directly(NodeId node, SimTime now) {
  std::uint8_t& flags = flags_.at(node);
  if (!(flags & kKnown)) ++known_count_;
  ++merge_stats_.updates_direct;
  flags = kKnown | kDirect;
  times_[node] = Times{0, now};
}

bool NodeCache::merge_indirect(NodeId node, const LivenessInfo& info,
                               SimTime now) {
  check_range(node, flags_.size());
  MergeStats tally;
  const bool accepted =
      merge(node, info, /*direct=*/false, now, tally).accepted;
  add_tally(tally);
  return accepted;
}

bool NodeCache::admit_claim(NodeId node, LivenessInfo& info, bool direct,
                            SimTime now, MergeStats& tally) const {
  // Direct contact proves the node is alive *now*, but its claimed uptime
  // is still just a claim. No node can have been up longer than the
  // simulation has run, so cap at now + slack and file suspicion for the
  // excess — the node stays usable but loses its stolen bias.
  //
  // An indirect claim is rejected outright when it is physically
  // impossible (more uptime than the clock allows) or when it contradicts
  // our own direct observation of the subject (direct outranks indirect —
  // a relayed rumor cannot make a node look longer-lived than we saw it
  // ourselves). A direct entry's origin is the time we heard it.
  bool inflated;
  if (direct) {
    inflated = info.dt_alive > now + kClaimSlack;
    if (inflated) info.dt_alive = now + kClaimSlack;
  } else {
    const std::uint8_t flags = flags_[node];
    const Times& times = times_[node];
    inflated = info.alive &&
               (info.dt_alive > now + kClaimSlack ||
                ((flags & (kKnown | kAlive | kDirect)) ==
                     (kKnown | kAlive | kDirect) &&
                 info.dt_alive >
                     times.dt_alive + (now - times.t_origin) + kClaimSlack));
  }
  if (!inflated) return true;
  ++tally.inflated_rejected;
  report_suspicion(node, kInflationSuspicion, now);
  return direct;
}

double NodeCache::predictor(NodeId node, SimTime now) const {
  if ((flags_.at(node) & (kKnown | kAlive)) != (kKnown | kAlive)) return 0.0;
  // Eq. 3: stored dt_since plus local staleness is now - t_origin.
  return liveness_predictor(times_[node].dt_alive,
                            now - times_[node].t_origin);
}

std::vector<NodeId> NodeCache::sample_known(
    std::size_t count, Rng& rng,
    const std::unordered_set<NodeId>& exclude) const {
  // Legacy entry point (no clock): quarantine cannot decay without `now`,
  // so this overload never consults suspicion. Selection paths that honor
  // quarantine use the four-argument overload below.
  return sample_known(count, rng, exclude, 0, /*honor_quarantine=*/false);
}

std::vector<NodeId> NodeCache::sample_known(
    std::size_t count, Rng& rng, const std::unordered_set<NodeId>& exclude,
    SimTime now, bool honor_quarantine) const {
  const bool gate = honor_quarantine && suspicion_enabled_;
  std::vector<NodeId> pool;
  pool.reserve(known_count_);
  for (NodeId node = 0; node < flags_.size(); ++node) {
    if (!(flags_[node] & kKnown) || exclude.count(node) > 0) continue;
    if (gate && quarantined(node, now)) continue;
    pool.push_back(node);
  }
  if (pool.size() < count) return {};
  const auto picks = rng.sample_without_replacement(pool.size(), count);
  std::vector<NodeId> out;
  out.reserve(count);
  for (auto i : picks) out.push_back(pool[i]);
  return out;
}

std::vector<NodeId> NodeCache::top_by_predictor(
    std::size_t count, SimTime now,
    const std::unordered_set<NodeId>& exclude) const {
  std::vector<std::pair<double, NodeId>> scored;
  scored.reserve(known_count_);
  for (NodeId node = 0; node < flags_.size(); ++node) {
    if (!(flags_[node] & kKnown) || exclude.count(node) > 0) continue;
    if (suspicion_enabled_) {
      // Behavioral bias (§4.9 generalized): quarantined nodes are refused
      // outright; any remaining suspicion demotes the liveness score by
      // q / (1 + penalty * s), so equally-live clean nodes win.
      if (quarantined(node, now)) continue;
      const double s = suspicion(node, now);
      scored.emplace_back(
          predictor(node, now) / (1.0 + kBiasPenalty * s), node);
      continue;
    }
    scored.emplace_back(predictor(node, now), node);
  }
  if (scored.size() < count) return {};
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<long>(count), scored.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;  // deterministic ties
                    });
  std::vector<NodeId> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(scored[i].second);
  return out;
}

void NodeCache::clear() {
  std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
  std::fill(times_.begin(), times_.end(), Times{});
  known_count_ = 0;
  merge_stats_ = MergeStats{};
  for (Suspicion& s : suspicion_) s = Suspicion{};
}

// --- bounded trust ---------------------------------------------------------

void NodeCache::enable_bounded_trust() { trust_enabled_ = true; }

NodeCache::AgeStats NodeCache::age_stats(SimTime now,
                                         SimDuration stale_after) const {
  AgeStats stats;
  std::vector<SimDuration> ages;
  ages.reserve(known_count_);
  std::size_t stale = 0;
  for (NodeId node = 0; node < flags_.size(); ++node) {
    if ((flags_[node] & (kKnown | kAlive)) != (kKnown | kAlive)) continue;
    const SimDuration age = now - times_[node].t_origin;
    ages.push_back(age);
    if (age > stale_after) ++stale;
  }
  stats.alive_known = ages.size();
  if (ages.empty()) return stats;
  const std::size_t p50 = ages.size() / 2;
  const std::size_t p95 =
      std::min(ages.size() - 1, (ages.size() * 95) / 100);
  std::nth_element(ages.begin(), ages.begin() + static_cast<long>(p50),
                   ages.end());
  stats.age_p50 = ages[p50];
  std::nth_element(ages.begin(), ages.begin() + static_cast<long>(p95),
                   ages.end());
  stats.age_p95 = ages[p95];
  stats.stale_fraction =
      static_cast<double>(stale) / static_cast<double>(ages.size());
  return stats;
}

// --- behavioral suspicion --------------------------------------------------------

void NodeCache::enable_suspicion() {
  suspicion_enabled_ = true;
  suspicion_.assign(flags_.size(), Suspicion{});
}

double NodeCache::decayed_suspicion(NodeId node, SimTime now) const {
  const Suspicion& s = suspicion_[node];
  if (s.score == 0.0) return 0.0;
  if (now <= s.updated) return s.score;
  const double dt = static_cast<double>(now - s.updated);
  return s.score * std::exp2(-dt / static_cast<double>(kSuspicionHalfLife));
}

void NodeCache::report_suspicion(NodeId node, double amount,
                                 SimTime now) const {
  if (!suspicion_enabled_ || node >= suspicion_.size() || amount <= 0.0) {
    return;
  }
  Suspicion& s = suspicion_[node];
  s.score = decayed_suspicion(node, now) + amount;
  s.updated = now;
}

double NodeCache::suspicion(NodeId node, SimTime now) const {
  if (!suspicion_enabled_ || node >= suspicion_.size()) return 0.0;
  return decayed_suspicion(node, now);
}

bool NodeCache::quarantined(NodeId node, SimTime now) const {
  if (!suspicion_enabled_ || node >= suspicion_.size()) return false;
  return decayed_suspicion(node, now) >= kQuarantineThreshold;
}

std::size_t NodeCache::quarantined_count(SimTime now) const {
  if (!suspicion_enabled_) return 0;
  std::size_t count = 0;
  for (NodeId node = 0; node < suspicion_.size(); ++node) {
    if (quarantined(node, now)) ++count;
  }
  return count;
}

}  // namespace p2panon::membership
