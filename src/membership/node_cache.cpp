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
}  // namespace

NodeCache::NodeCache(std::size_t num_nodes) : entries_(num_nodes) {
  for (std::size_t i = 0; i < num_nodes; ++i) {
    entries_[i].node = static_cast<NodeId>(i);
  }
}

void NodeCache::heard_directly(NodeId node, SimDuration dt_alive,
                               SimTime now) {
  Entry& e = entries_.at(node);
  if (!e.known) ++known_count_;
  // Bounded trust: direct contact proves the node is alive *now*, but its
  // claimed uptime is still just a claim. No node can have been up longer
  // than the simulation has run, so cap at now + slack and file suspicion
  // for the excess — the node stays usable but loses its stolen bias.
  if (trust_enabled_ && dt_alive > now + kClaimSlack) {
    dt_alive = now + kClaimSlack;
    ++merge_stats_.inflated_rejected;
    report_suspicion(node, kInflationSuspicion, now);
  }
  ++merge_stats_.updates_direct;
  e.known = true;
  e.alive = true;
  e.direct = true;
  e.dt_alive = dt_alive;
  e.dt_since = 0;
  e.t_last = now;
}

void NodeCache::heard_left_directly(NodeId node, SimTime now) {
  Entry& e = entries_.at(node);
  if (!e.known) ++known_count_;
  ++merge_stats_.updates_direct;
  e.known = true;
  e.alive = false;
  e.direct = true;
  e.dt_alive = 0;
  e.dt_since = 0;
  e.t_last = now;
}

bool NodeCache::merge_indirect(NodeId node, const LivenessInfo& info,
                               SimTime now) {
  Entry& e = entries_.at(node);
  // Bounded trust: an indirect claim is rejected outright when it is
  // physically impossible (more uptime than the clock allows) or when it
  // contradicts our own direct observation of the subject (direct outranks
  // indirect — a relayed rumor cannot make a node look longer-lived than
  // we saw it ourselves).
  if (trust_enabled_ && info.alive) {
    const bool impossible = info.dt_alive > now + kClaimSlack;
    const bool over_direct =
        e.known && e.direct && e.alive &&
        info.dt_alive > e.dt_alive + (now - e.t_last) + kClaimSlack;
    if (impossible || over_direct) {
      ++merge_stats_.inflated_rejected;
      report_suspicion(node, kInflationSuspicion, now);
      return false;
    }
  }
  if (!e.known) {
    ++known_count_;
    ++merge_stats_.updates_indirect;
    e.known = true;
    e.alive = info.alive;
    e.direct = false;
    e.dt_alive = info.dt_alive;
    e.dt_since = info.dt_since;
    e.t_last = now;
    return true;
  }
  // Effective staleness of what we already have.
  const SimDuration current_since = e.dt_since + (now - e.t_last);
  if (info.dt_since < current_since) {
    ++merge_stats_.updates_indirect;
    e.alive = info.alive;
    e.direct = false;
    e.dt_alive = info.dt_alive;
    e.dt_since = info.dt_since;
    e.t_last = now;
    return true;
  }
  ++merge_stats_.merges_rejected;
  return false;
}

double NodeCache::predictor(NodeId node, SimTime now) const {
  const Entry& e = entries_.at(node);
  if (!e.known || !e.alive) return 0.0;
  return liveness_predictor(e.dt_alive, e.dt_since, e.t_last, now);
}

std::optional<LivenessInfo> NodeCache::observation(NodeId node,
                                                   SimTime now) const {
  const Entry& e = entries_.at(node);
  if (!e.known) return std::nullopt;
  LivenessInfo info;
  info.alive = e.alive;
  info.dt_alive = e.dt_alive;
  info.dt_since = e.dt_since + (now - e.t_last);
  return info;
}

const NodeCache::Entry* NodeCache::find(NodeId node) const {
  if (node >= entries_.size()) return nullptr;
  const Entry& e = entries_[node];
  return e.known ? &e : nullptr;
}

std::vector<NodeId> NodeCache::known_nodes() const {
  std::vector<NodeId> out;
  out.reserve(known_count_);
  for (const Entry& e : entries_) {
    if (e.known) out.push_back(e.node);
  }
  return out;
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
  for (const Entry& e : entries_) {
    if (!e.known || exclude.count(e.node) > 0) continue;
    if (gate && quarantined(e.node, now)) continue;
    pool.push_back(e.node);
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
  for (const Entry& e : entries_) {
    if (!e.known || exclude.count(e.node) > 0) continue;
    if (suspicion_enabled_) {
      // Behavioral bias (§4.9 generalized): quarantined nodes are refused
      // outright; any remaining suspicion demotes the liveness score by
      // q / (1 + penalty * s), so equally-live clean nodes win.
      if (quarantined(e.node, now)) continue;
      const double s = suspicion(e.node, now);
      scored.emplace_back(
          predictor(e.node, now) / (1.0 + kBiasPenalty * s),
          e.node);
      continue;
    }
    scored.emplace_back(predictor(e.node, now), e.node);
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
  for (Entry& e : entries_) {
    const NodeId id = e.node;
    e = Entry{};
    e.node = id;
  }
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
  for (const Entry& e : entries_) {
    if (!e.known || !e.alive) continue;
    const SimDuration age = e.dt_since + (now - e.t_last);
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
  suspicion_.assign(entries_.size(), Suspicion{});
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
