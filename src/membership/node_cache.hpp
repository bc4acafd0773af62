// Per-node membership cache (paper §4.8, §4.9 "Learning Node Liveness
// Information").
//
// Each node seeking anonymity maintains one of these. An entry stores the
// subject's last-known liveness observation: dt_alive, and the local time
// t_origin at which the observation was made. A record received with
// dt_since at local time t_last has t_origin = t_last - dt_since, so its
// *effective* dt_since at `now` (stored dt_since + local staleness) is
// now - t_origin. Merge rules follow the paper exactly:
//   - heard directly: overwrite dt_alive, dt_since = 0, so t_origin = now;
//   - heard indirectly: accept iff the received dt_since is smaller than
//     the entry's effective dt_since, i.e. the received observation is
//     fresher.
// Leave observations travel the same way with alive = false.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "membership/liveness.hpp"

namespace p2panon::membership {

class NodeCache {
 public:
  /// One subject's record, as find() returns it.
  struct Entry {
    SimDuration dt_alive = 0;  // subject uptime at observation
    SimTime t_origin = 0;      // local time of the observation
    bool alive = false;        // last observed state
    bool direct = false;       // last update was a first-hand observation

    /// The record as gossiped at `now`: local staleness folded into
    /// dt_since.
    LivenessInfo observation(SimTime now) const {
      return LivenessInfo{dt_alive, now - t_origin, alive};
    }
  };

  /// Storage per subject: a flags byte and the two times, kept in two
  /// dense arrays. N caches of N subjects each make this the membership
  /// layer's O(N²) constant.
  static constexpr std::size_t kBytesPerSubject = 17;

  /// Always-on cheap tallies of merge outcomes, surfaced as the obs
  /// `membership_cache_updates_total{rule=...}` counters by the harness
  /// sampler.
  struct MergeStats {
    std::uint64_t updates_direct = 0;    // heard_directly / heard_left_directly
    std::uint64_t updates_indirect = 0;  // merge_indirect accepted
    std::uint64_t merges_rejected = 0;   // merge_indirect stale-rejected
    std::uint64_t inflated_rejected = 0; // bounded-trust capped or rejected
  };

  /// Record-age distribution over known-alive entries: how stale this
  /// node's view of the living network is. `age` of an entry is its
  /// effective dt_since (stored + local staleness). The staleness-aware
  /// mix selector degrades from biased to random selection on
  /// stale_fraction.
  struct AgeStats {
    std::size_t alive_known = 0;
    SimDuration age_p50 = 0;
    SimDuration age_p95 = 0;
    double stale_fraction = 0.0;  // entries older than the given threshold
  };

  /// What merge() did with a record: whether it was written, and whether
  /// it was news (written, and a first sighting or a flip of the alive
  /// state the record carries).
  struct Merged {
    bool accepted = false;
    bool changed = false;
  };

  explicit NodeCache(std::size_t num_nodes);

  /// Direct observation: we exchanged a packet with `node` right now and it
  /// reported `dt_alive` uptime.
  void heard_directly(NodeId node, SimDuration dt_alive, SimTime now);

  /// Direct observation of a leave (e.g. our keepalive to the node timed
  /// out, or it announced departure).
  void heard_left_directly(NodeId node, SimTime now);

  /// Indirect observation via gossip. Returns true if the record was
  /// accepted (fresher than what we had).
  bool merge_indirect(NodeId node, const LivenessInfo& info, SimTime now);

  /// One received record about `node`, which the caller has checked is
  /// below capacity(): heard_directly's rule when `direct` (the record's
  /// alive flag then only feeds `changed`), merge_indirect's otherwise.
  /// Reads and writes the subject's state once and counts into `tally`,
  /// which the caller hands to add_tally() once per message.
  Merged merge(NodeId node, LivenessInfo info, bool direct, SimTime now,
               MergeStats& tally);
  void add_tally(const MergeStats& tally);

  /// Eq. 3 predictor for a cached node; 0 for unknown or believed-dead.
  double predictor(NodeId node, SimTime now) const;

  /// The observation we would gossip about `node` right now: stored record
  /// with local staleness folded into dt_since. nullopt when unknown.
  std::optional<LivenessInfo> observation(NodeId node, SimTime now) const {
    if (!(flags_.at(node) & kKnown)) return std::nullopt;
    return find(node)->observation(now);
  }

  /// The known entry for `node`, by value; nullopt when unknown or out of
  /// range.
  std::optional<Entry> find(NodeId node) const {
    if (node >= flags_.size()) return std::nullopt;
    const std::uint8_t flags = flags_[node];
    if (!(flags & kKnown)) return std::nullopt;
    return Entry{times_[node].dt_alive, times_[node].t_origin,
                 (flags & kAlive) != 0, (flags & kDirect) != 0};
  }
  std::size_t known_count() const { return known_count_; }
  std::size_t capacity() const { return flags_.size(); }

  /// `count` distinct nodes chosen uniformly from all known nodes,
  /// skipping `exclude` — the paper's *random* mix choice (no liveness
  /// consultation at all).
  std::vector<NodeId> sample_known(std::size_t count, Rng& rng,
                                   const std::unordered_set<NodeId>& exclude)
      const;

  /// Clock-aware overload: with suspicion enabled and `honor_quarantine`
  /// set, nodes whose decayed suspicion is over the quarantine threshold
  /// are excluded from the pool (MixSelector uses this). RNG draws are
  /// unchanged relative to the legacy overload while suspicion is off.
  std::vector<NodeId> sample_known(std::size_t count, Rng& rng,
                                   const std::unordered_set<NodeId>& exclude,
                                   SimTime now, bool honor_quarantine) const;

  /// `count` nodes with the highest Eq. 3 predictor, skipping `exclude` —
  /// the paper's *biased* mix choice.
  std::vector<NodeId> top_by_predictor(
      std::size_t count, SimTime now,
      const std::unordered_set<NodeId>& exclude) const;

  /// Drops everything (tests / node reset).
  void clear();

  // --- bounded trust (control-plane resilience extension, DESIGN §9; off
  // until enable_bounded_trust() is called) ---

  /// Turns bounded-trust merging on. Liveness claims are bounded by
  /// physics: a node running since the epoch can have accumulated at most
  /// `now` of uptime, and an indirect claim about a node we have observed
  /// directly cannot exceed our own observation extrapolated forward.
  /// Direct claims past the first bound (plus 30 s of slack for clock
  /// skew) are capped; indirect claims past either bound are rejected. The
  /// subject of an inflated claim earns 0.5 suspicion when suspicion is
  /// enabled, so a persistent inflater quarantines itself out of the mix
  /// pool.
  void enable_bounded_trust();

  const MergeStats& merge_stats() const { return merge_stats_; }

  /// Record-age percentiles and stale fraction over known-alive entries;
  /// `stale_after` is the age past which an entry counts as stale.
  AgeStats age_stats(SimTime now, SimDuration stale_after) const;

  // --- behavioral suspicion (corruption resilience extension; until
  // enable_suspicion() is called, every method below is a no-op or
  // returns 0) ---

  /// Turns suspicion tracking on. The paper's predictor captures
  /// *liveness*; suspicion captures *behavior* — evidence that a node
  /// corrupted or stalled traffic, fed back from the responder's ack
  /// channel. Scores decay with a 5 min half-life, so a quarantined node
  /// earns its way back through good behavior. Called at setup time by
  /// whoever owns the cache mutably (harness, tests); reporting itself is
  /// const, see below.
  void enable_suspicion();
  bool suspicion_enabled() const { return suspicion_enabled_; }

  /// Accrues `amount` suspicion on `node` (corruption evidence ~1.0,
  /// stall evidence ~0.25), on top of the decayed current score. Const:
  /// suspicion is a behavioral annotation filed by read-only holders of
  /// the cache (Session observes it const), not membership state proper.
  void report_suspicion(NodeId node, double amount, SimTime now) const;

  /// Decayed suspicion score; 0 when disabled or never reported.
  double suspicion(NodeId node, SimTime now) const;

  /// True when the decayed score is at or above the quarantine threshold
  /// (2.0); quarantined nodes are skipped by sample_known and
  /// top_by_predictor, which also demotes any remaining suspicion s by
  /// scoring q / (1 + s).
  bool quarantined(NodeId node, SimTime now) const;

  std::size_t quarantined_count(SimTime now) const;

  /// Heap footprint (flags, times and the lazily-sized suspicion table)
  /// for the capacity byte census. N caches of N subjects each is the
  /// membership layer's O(N²) term.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(flags_.capacity()) +
           static_cast<std::uint64_t>(times_.capacity()) * sizeof(Times) +
           static_cast<std::uint64_t>(suspicion_.capacity()) *
               sizeof(Suspicion);
  }

 private:
  static constexpr std::uint8_t kKnown = 1;
  static constexpr std::uint8_t kAlive = 2;   // last observed state
  static constexpr std::uint8_t kDirect = 4;  // last update first-hand

  struct Times {
    SimDuration dt_alive = 0;
    SimTime t_origin = 0;
  };
  static_assert(sizeof(std::uint8_t) + sizeof(Times) == kBytesPerSubject);

  /// Bounded trust's check of a claim before merge() applies it: caps a
  /// direct claim's dt_alive, or returns false for an indirect claim to
  /// reject. Files suspicion on the subject of an inflated claim.
  bool admit_claim(NodeId node, LivenessInfo& info, bool direct, SimTime now,
                   MergeStats& tally) const;

  // Subject-indexed: flags_ is what the alive/known probes touch, times_
  // what a record read or write adds.
  std::vector<std::uint8_t> flags_;
  std::vector<Times> times_;
  std::size_t known_count_ = 0;
  bool trust_enabled_ = false;
  MergeStats merge_stats_;

  struct Suspicion {
    double score = 0.0;
    SimTime updated = 0;
  };
  double decayed_suspicion(NodeId node, SimTime now) const;

  bool suspicion_enabled_ = false;
  mutable std::vector<Suspicion> suspicion_;
};

inline NodeCache::Merged NodeCache::merge(NodeId node, LivenessInfo info,
                                          bool direct, SimTime now,
                                          MergeStats& tally) {
  if (trust_enabled_ && !admit_claim(node, info, direct, now, tally)) {
    return {};
  }
  std::uint8_t& flags = flags_[node];
  Times& times = times_[node];
  const std::uint8_t prior = flags;
  const bool known = (prior & kKnown) != 0;
  if (direct) {
    ++tally.updates_direct;
    flags = kKnown | kAlive | kDirect;
    times = Times{info.dt_alive, now};
  } else if (!known || info.dt_since < now - times.t_origin) {
    // Unknown, or fresher than the effective staleness of what we have.
    ++tally.updates_indirect;
    flags = info.alive ? kKnown | kAlive : kKnown;
    times = Times{info.dt_alive, now - info.dt_since};
  } else {
    ++tally.merges_rejected;
    return {};
  }
  if (!known) ++known_count_;
  return {true, !known || ((prior & kAlive) != 0) != info.alive};
}

inline void NodeCache::add_tally(const MergeStats& tally) {
  merge_stats_.updates_direct += tally.updates_direct;
  merge_stats_.updates_indirect += tally.updates_indirect;
  merge_stats_.merges_rejected += tally.merges_rejected;
  merge_stats_.inflated_rejected += tally.inflated_rejected;
}

}  // namespace p2panon::membership
