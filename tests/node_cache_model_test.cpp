// NodeCache against a reference model: a test-local copy of the cache as a
// plain vector of 24-byte entries (two int64 times and three one-bit
// flags) with the paper's merge rules, bounded trust and suspicion written
// out the simple way. Seeded mixes of direct, leave, indirect and clear
// operations drive both side by side, and every query is compared after
// every step, so any storage layout the cache uses must keep the exact
// semantics of this one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "membership/liveness.hpp"
#include "membership/node_cache.hpp"

namespace p2panon::membership {
namespace {

constexpr SimDuration kMaxDuration = std::numeric_limits<SimDuration>::max();

// The constants node_cache.cpp uses for bounded trust and suspicion.
constexpr SimDuration kClaimSlack = 30 * kSecond;
constexpr double kInflationSuspicion = 0.5;
constexpr SimDuration kSuspicionHalfLife = 5 * kMinute;
constexpr double kQuarantineThreshold = 2.0;
constexpr double kBiasPenalty = 1.0;

class ReferenceCache {
 public:
  struct Entry {
    SimDuration dt_alive = 0;
    SimTime t_origin = 0;
    bool known : 1 = false;
    bool alive : 1 = false;
    bool direct : 1 = false;
  };

  explicit ReferenceCache(std::size_t n) : entries_(n) {}

  void enable_bounded_trust() { trust_ = true; }
  void enable_suspicion() {
    suspicion_on_ = true;
    suspicion_.assign(entries_.size(), Suspicion{});
  }

  void heard_directly(NodeId node, SimDuration dt_alive, SimTime now) {
    Entry& e = entries_[node];
    if (!e.known) ++known_count_;
    if (trust_ && dt_alive > now + kClaimSlack) {
      dt_alive = now + kClaimSlack;
      ++stats_.inflated_rejected;
      report_suspicion(node, kInflationSuspicion, now);
    }
    ++stats_.updates_direct;
    e.known = true;
    e.alive = true;
    e.direct = true;
    e.dt_alive = dt_alive;
    e.t_origin = now;
  }

  void heard_left_directly(NodeId node, SimTime now) {
    Entry& e = entries_[node];
    if (!e.known) ++known_count_;
    ++stats_.updates_direct;
    e.known = true;
    e.alive = false;
    e.direct = true;
    e.dt_alive = 0;
    e.t_origin = now;
  }

  bool merge_indirect(NodeId node, const LivenessInfo& info, SimTime now) {
    Entry& e = entries_[node];
    if (trust_ && info.alive) {
      const bool impossible = info.dt_alive > now + kClaimSlack;
      const bool over_direct =
          e.known && e.direct && e.alive &&
          info.dt_alive > e.dt_alive + (now - e.t_origin) + kClaimSlack;
      if (impossible || over_direct) {
        ++stats_.inflated_rejected;
        report_suspicion(node, kInflationSuspicion, now);
        return false;
      }
    }
    if (e.known && info.dt_since >= now - e.t_origin) {
      ++stats_.merges_rejected;
      return false;
    }
    if (!e.known) ++known_count_;
    ++stats_.updates_indirect;
    e.known = true;
    e.alive = info.alive;
    e.direct = false;
    e.dt_alive = info.dt_alive;
    e.t_origin = now - info.dt_since;
    return true;
  }

  void clear() {
    std::fill(entries_.begin(), entries_.end(), Entry{});
    known_count_ = 0;
    stats_ = NodeCache::MergeStats{};
    for (Suspicion& s : suspicion_) s = Suspicion{};
  }

  const Entry& entry(NodeId node) const { return entries_[node]; }
  std::size_t known_count() const { return known_count_; }
  const NodeCache::MergeStats& merge_stats() const { return stats_; }

  double predictor(NodeId node, SimTime now) const {
    const Entry& e = entries_[node];
    if (!e.known || !e.alive) return 0.0;
    return liveness_predictor(e.dt_alive, now - e.t_origin);
  }

  void report_suspicion(NodeId node, double amount, SimTime now) {
    if (!suspicion_on_ || amount <= 0.0) return;
    Suspicion& s = suspicion_[node];
    s.score = suspicion(node, now) + amount;
    s.updated = now;
  }

  double suspicion(NodeId node, SimTime now) const {
    if (!suspicion_on_) return 0.0;
    const Suspicion& s = suspicion_[node];
    if (s.score == 0.0) return 0.0;
    if (now <= s.updated) return s.score;
    const double dt = static_cast<double>(now - s.updated);
    return s.score * std::exp2(-dt / static_cast<double>(kSuspicionHalfLife));
  }

  bool quarantined(NodeId node, SimTime now) const {
    return suspicion_on_ && suspicion(node, now) >= kQuarantineThreshold;
  }

  std::vector<NodeId> sample_known(std::size_t count, Rng& rng,
                                   const std::unordered_set<NodeId>& exclude,
                                   SimTime now, bool honor_quarantine) const {
    std::vector<NodeId> pool;
    for (NodeId node = 0; node < entries_.size(); ++node) {
      if (!entries_[node].known || exclude.count(node) > 0) continue;
      if (honor_quarantine && quarantined(node, now)) continue;
      pool.push_back(node);
    }
    if (pool.size() < count) return {};
    std::vector<NodeId> out;
    for (auto i : rng.sample_without_replacement(pool.size(), count)) {
      out.push_back(pool[i]);
    }
    return out;
  }

  std::vector<NodeId> top_by_predictor(
      std::size_t count, SimTime now,
      const std::unordered_set<NodeId>& exclude) const {
    std::vector<std::pair<double, NodeId>> scored;
    for (NodeId node = 0; node < entries_.size(); ++node) {
      if (!entries_[node].known || exclude.count(node) > 0) continue;
      if (suspicion_on_) {
        if (quarantined(node, now)) continue;
        scored.emplace_back(predictor(node, now) /
                                (1.0 + kBiasPenalty * suspicion(node, now)),
                            node);
        continue;
      }
      scored.emplace_back(predictor(node, now), node);
    }
    if (scored.size() < count) return {};
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < count; ++i) out.push_back(scored[i].second);
    return out;
  }

  NodeCache::AgeStats age_stats(SimTime now, SimDuration stale_after) const {
    NodeCache::AgeStats stats;
    std::vector<SimDuration> ages;
    std::size_t stale = 0;
    for (const Entry& e : entries_) {
      if (!e.known || !e.alive) continue;
      ages.push_back(now - e.t_origin);
      if (ages.back() > stale_after) ++stale;
    }
    stats.alive_known = ages.size();
    if (ages.empty()) return stats;
    std::sort(ages.begin(), ages.end());
    stats.age_p50 = ages[ages.size() / 2];
    stats.age_p95 = ages[std::min(ages.size() - 1, (ages.size() * 95) / 100)];
    stats.stale_fraction =
        static_cast<double>(stale) / static_cast<double>(ages.size());
    return stats;
  }

 private:
  struct Suspicion {
    double score = 0.0;
    SimTime updated = 0;
  };

  std::vector<Entry> entries_;
  std::size_t known_count_ = 0;
  bool trust_ = false;
  bool suspicion_on_ = false;
  NodeCache::MergeStats stats_;
  std::vector<Suspicion> suspicion_;
};
static_assert(sizeof(ReferenceCache::Entry) == 24);

// Every query of `cache` at `now` against the model's answer.
void expect_same(const NodeCache& cache, const ReferenceCache& model,
                 SimTime now, Rng& draws, std::size_t n) {
  ASSERT_EQ(cache.known_count(), model.known_count());
  const auto& got = cache.merge_stats();
  const auto& want = model.merge_stats();
  ASSERT_EQ(got.updates_direct, want.updates_direct);
  ASSERT_EQ(got.updates_indirect, want.updates_indirect);
  ASSERT_EQ(got.merges_rejected, want.merges_rejected);
  ASSERT_EQ(got.inflated_rejected, want.inflated_rejected);

  for (NodeId node = 0; node < n; ++node) {
    const ReferenceCache::Entry& e = model.entry(node);
    const auto found = cache.find(node);
    ASSERT_EQ(static_cast<bool>(found), e.known) << "node " << node;
    const auto observed = cache.observation(node, now);
    ASSERT_EQ(observed.has_value(), e.known) << "node " << node;
    if (e.known) {
      EXPECT_EQ(found->dt_alive, e.dt_alive) << "node " << node;
      EXPECT_EQ(found->t_origin, e.t_origin) << "node " << node;
      EXPECT_EQ(found->alive, e.alive) << "node " << node;
      EXPECT_EQ(found->direct, e.direct) << "node " << node;
      EXPECT_EQ(observed->dt_alive, e.dt_alive);
      EXPECT_EQ(observed->dt_since, now - e.t_origin);
      EXPECT_EQ(observed->alive, e.alive);
    }
    // Exact: both sides compute the same expression.
    EXPECT_EQ(cache.predictor(node, now), model.predictor(node, now))
        << "node " << node;
    EXPECT_EQ(cache.suspicion(node, now), model.suspicion(node, now));
    EXPECT_EQ(cache.quarantined(node, now), model.quarantined(node, now));
  }
  ASSERT_FALSE(::testing::Test::HasFailure());

  for (const SimDuration stale_after : {SimDuration{0}, kMinute}) {
    const auto a = cache.age_stats(now, stale_after);
    const auto b = model.age_stats(now, stale_after);
    EXPECT_EQ(a.alive_known, b.alive_known);
    EXPECT_EQ(a.age_p50, b.age_p50);
    EXPECT_EQ(a.age_p95, b.age_p95);
    EXPECT_EQ(a.stale_fraction, b.stale_fraction);
  }

  std::unordered_set<NodeId> exclude;
  for (std::size_t i = draws.next_below(4); i > 0; --i) {
    exclude.insert(static_cast<NodeId>(draws.next_below(n)));
  }
  const std::size_t count = 1 + draws.next_below(n);
  EXPECT_EQ(cache.top_by_predictor(count, now, exclude),
            model.top_by_predictor(count, now, exclude));

  // Both samplers draw from copies of one stream and must leave the copies
  // in step.
  for (const bool honor : {false, true}) {
    Rng a(draws.next_u64());
    Rng b = a;
    EXPECT_EQ(cache.sample_known(count, a, exclude, now, honor),
              model.sample_known(count, b, exclude, now, honor));
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  Rng a(draws.next_u64());
  Rng b = a;
  EXPECT_EQ(cache.sample_known(count, a, exclude),
            model.sample_known(count, b, exclude, now, false));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

struct ModelCase {
  bool trust;
  bool suspicion;
  // false: the clock runs forward and durations stay below 2^40 us, so no
  // `now - t_origin` or `dt_alive + dt_since` can overflow. true: durations
  // reach the wire's extremes, 0 and 2^63-1, and the clock runs backward:
  // a record aged 2^63-1 puts t_origin near INT64_MIN, and any later `now`
  // would overflow `now - t_origin` in both caches.
  bool extremes;
};

class NodeCacheModelTest : public ::testing::TestWithParam<ModelCase> {};

SimDuration draw_duration(Rng& rng, bool extremes) {
  switch (rng.next_below(extremes ? 6 : 4)) {
    case 0:
      return 0;
    case 1:
      return 1;
    case 2:
      return static_cast<SimDuration>(rng.next_below(10 * kMinute));
    case 3:
      return static_cast<SimDuration>(rng.next_below(1ULL << 40));
    case 4:
      return static_cast<SimDuration>(rng.next_below(
          static_cast<std::uint64_t>(kMaxDuration)));
    default:
      return kMaxDuration;
  }
}

TEST_P(NodeCacheModelTest, MatchesTheReferenceModelStepByStep) {
  const ModelCase param = GetParam();
  constexpr std::size_t kNodes = 24;
  constexpr int kSteps = 600;
  // What the mixes reached, so a generator change cannot quietly stop
  // exercising a rule.
  std::size_t fresher_accepted = 0;
  std::size_t staler_rejected = 0;
  std::size_t extreme_origins = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    NodeCache cache(kNodes);
    ReferenceCache model(kNodes);
    if (param.suspicion) {
      cache.enable_suspicion();
      model.enable_suspicion();
    }
    if (param.trust) {
      cache.enable_bounded_trust();
      model.enable_bounded_trust();
    }
    Rng rng(seed * 7919 + (param.trust ? 1 : 0) + (param.suspicion ? 2 : 0) +
            (param.extremes ? 4 : 0));
    SimTime now = param.extremes ? SimTime{1} << 50 : 0;
    for (int step = 0; step < kSteps; ++step) {
      const SimDuration tick =
          static_cast<SimDuration>(rng.next_below(20 * kSecond));
      now = param.extremes ? std::max<SimTime>(0, now - tick) : now + tick;
      const auto node = static_cast<NodeId>(rng.next_below(kNodes));
      const std::uint64_t op = rng.next_below(100);
      if (op < 25) {
        const SimDuration dt_alive = draw_duration(rng, param.extremes);
        cache.heard_directly(node, dt_alive, now);
        model.heard_directly(node, dt_alive, now);
      } else if (op < 35) {
        cache.heard_left_directly(node, now);
        model.heard_left_directly(node, now);
      } else if (op < 97) {
        LivenessInfo info;
        info.alive = rng.bernoulli(0.7);
        info.dt_alive = draw_duration(rng, param.extremes);
        info.dt_since = draw_duration(rng, param.extremes);
        // An alive record's predictor adds the two durations; keep the sum
        // representable, as it is for any record an honest node sends.
        if (info.alive && info.dt_alive > kMaxDuration - info.dt_since) {
          info.dt_alive = kMaxDuration - info.dt_since;
        }
        const bool was_known = model.entry(node).known;
        const bool accepted = model.merge_indirect(node, info, now);
        ASSERT_EQ(cache.merge_indirect(node, info, now), accepted)
            << "step " << step;
        if (was_known) ++(accepted ? fresher_accepted : staler_rejected);
        if (accepted && model.entry(node).t_origin < -(SimTime{1} << 62)) {
          ++extreme_origins;
        }
      } else if (op < 99) {
        // Suspicion from outside the merge path (the ack channel).
        cache.report_suspicion(node, 1.5, now);
        model.report_suspicion(node, 1.5, now);
      } else {
        cache.clear();
        model.clear();
      }
      SCOPED_TRACE(::testing::Message() << "step " << step);
      expect_same(cache, model, now, rng, kNodes);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(fresher_accepted, 0u);
  EXPECT_GT(staler_rejected, 0u);
  if (param.extremes) {
    EXPECT_GT(extreme_origins, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TrustSuspicionAndExtremes, NodeCacheModelTest,
    ::testing::Values(ModelCase{false, false, false},
                      ModelCase{true, false, false},
                      ModelCase{false, true, false},
                      ModelCase{true, true, false},
                      ModelCase{false, false, true},
                      ModelCase{true, true, true}),
    [](const ::testing::TestParamInfo<ModelCase>& param_info) {
      const ModelCase& c = param_info.param;
      std::string name = c.trust ? "Trust" : "NoTrust";
      name += c.suspicion ? "Suspicion" : "NoSuspicion";
      name += c.extremes ? "Extremes" : "Forward";
      return name;
    });

}  // namespace
}  // namespace p2panon::membership
