// Deterministic, scriptable fault schedule.
//
// A FaultPlan is a passive description of *when* and *where* the network
// misbehaves: node crashes with optional recovery, bidirectional partitions
// between node sets, per-link loss/delay spikes over time windows, message
// duplication, bounded reordering, and byzantine corruption of forward-
// channel datagrams. It is consumed by two parties:
//
//   - FaultyTransport, a Transport decorator that applies the loss /
//     partition / duplication / reordering / corruption rules to every
//     datagram (with its own RNG stream, so an empty plan perturbs
//     nothing);
//   - the liveness oracle: crash windows are bridged into the churn
//     model's is_up view (Environment composes `churn.is_up(n) &&
//     !plan.is_crashed(n, now)`), so delivery-time death of a crashed
//     receiver behaves exactly like churn-induced death.
//
// All rules are plain data; queries are pure functions of (plan, time), so
// two runs over the same plan and seeds are bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace p2panon::fault {

/// Node is dead during [at, recover_at); kNeverTime means it never comes
/// back.
struct CrashEvent {
  NodeId node = kInvalidNode;
  SimTime at = 0;
  SimTime recover_at = kNeverTime;
};

/// No datagram crosses between side_a and side_b (either direction) during
/// [start, end). An empty side_b means "everyone not in side_a".
struct PartitionRule {
  std::vector<NodeId> side_a;
  std::vector<NodeId> side_b;  // empty = rest of the network
  SimTime start = 0;
  SimTime end = kNeverTime;
};

/// During [start, end), datagrams on matching links are dropped i.i.d.
/// with `loss_rate`, and (when extra_delay_max > 0) delayed by an extra
/// uniform [0, extra_delay_max]. A link matches when either endpoint is in
/// `endpoints`; an empty list matches every link.
struct LinkSpikeRule {
  double loss_rate = 0.0;
  SimDuration extra_delay_max = 0;
  SimTime start = 0;
  SimTime end = kNeverTime;
  std::vector<NodeId> endpoints;  // empty = all links
};

/// During [start, end), each datagram is sent twice with probability
/// `probability` (the copy takes the same path through the remaining
/// rules' delay, so it may arrive before or after the original).
struct DuplicateRule {
  double probability = 0.0;
  SimTime start = 0;
  SimTime end = kNeverTime;
};

/// During [start, end), each datagram is held back by an extra uniform
/// [0, max_extra_delay] with probability `probability` — bounded
/// reordering relative to unaffected traffic.
struct ReorderRule {
  double probability = 0.0;
  SimDuration max_extra_delay = 0;
  SimTime start = 0;
  SimTime end = kNeverTime;
};

/// During [start, end), forward-channel (kAnonForward) datagrams sent by a
/// node in `at_nodes` (empty = any sender) have one byte flipped with
/// probability `probability` — a byzantine relay tampering with onions,
/// exercising AEAD rejection and peel-failure accounting downstream.
struct CorruptRule {
  double probability = 0.0;
  SimTime start = 0;
  SimTime end = kNeverTime;
  std::vector<NodeId> at_nodes;  // empty = any sender
};

/// During [start, end), every gossip-channel (kGossip) datagram on a
/// matching link is dropped — a total membership-dissemination blackout.
/// Data-plane traffic is untouched, which is exactly what makes this fault
/// interesting: routing keeps working while liveness knowledge rots. A link
/// matches when either endpoint is in `endpoints`; empty matches every link.
struct GossipBlackoutRule {
  SimTime start = 0;
  SimTime end = kNeverTime;
  std::vector<NodeId> endpoints;  // empty = all links
};

/// During [start, end), gossip-channel datagrams on matching links are
/// dropped i.i.d. with `loss_rate` — lossy dissemination without a full
/// blackout.
struct GossipLossRule {
  double loss_rate = 0.0;
  SimTime start = 0;
  SimTime end = kNeverTime;
  std::vector<NodeId> endpoints;  // empty = all links
};

/// During [start, end), each liveness record inside a gossip datagram sent
/// by a node in `at_nodes` (empty = any sender) has `extra_staleness` added
/// to its dt_since field with probability `probability` — in-flight record
/// aging that makes receivers believe their information is older (or the
/// subject deader) than it really is.
struct StaleInjectRule {
  double probability = 0.0;
  SimDuration extra_staleness = 0;
  SimTime start = 0;
  SimTime end = kNeverTime;
  std::vector<NodeId> at_nodes;  // empty = any sender
};

/// During [start, end), a sender in `at_nodes` inflates its own first-person
/// liveness record (dt_alive *= factor, += boost) with probability
/// `probability` — the bounded liveness-claim attack from the paper's threat
/// model: a node advertising a longer uptime than it has earned to attract
/// biased selection. Only the self-record (record 0, subject == sender) is
/// touched; relayed third-party records are left alone.
struct ClaimInflateRule {
  double probability = 0.0;
  double factor = 1.0;
  SimDuration boost = 0;
  SimTime start = 0;
  SimTime end = kNeverTime;
  std::vector<NodeId> at_nodes;  // empty = any sender
};

class FaultPlan {
 public:
  // --- builders (chainable) ---
  FaultPlan& crash(NodeId node, SimTime at, SimTime recover_at = kNeverTime);
  FaultPlan& partition(std::vector<NodeId> side_a, std::vector<NodeId> side_b,
                       SimTime start, SimTime end);
  FaultPlan& link_spike(LinkSpikeRule rule);
  FaultPlan& duplicate(double probability, SimTime start, SimTime end);
  FaultPlan& reorder(double probability, SimDuration max_extra_delay,
                     SimTime start, SimTime end);
  FaultPlan& corrupt(double probability, SimTime start, SimTime end,
                     std::vector<NodeId> at_nodes = {});
  FaultPlan& gossip_blackout(SimTime start, SimTime end,
                             std::vector<NodeId> endpoints = {});
  FaultPlan& gossip_loss(double loss_rate, SimTime start, SimTime end,
                         std::vector<NodeId> endpoints = {});
  FaultPlan& stale_inject(double probability, SimDuration extra_staleness,
                          SimTime start, SimTime end,
                          std::vector<NodeId> at_nodes = {});
  FaultPlan& claim_inflate(double probability, double factor,
                           SimDuration boost, SimTime start, SimTime end,
                           std::vector<NodeId> at_nodes = {});

  // --- queries ---
  /// True inside any of `node`'s crash windows. Looks only at that node's
  /// windows: the liveness oracle and FaultyTransport ask several times
  /// per datagram.
  bool is_crashed(NodeId node, SimTime now) const;
  bool partitioned(NodeId from, NodeId to, SimTime now) const;

  /// True when any loss / delay / duplicate / reorder / corrupt rule could
  /// ever fire (cheap gate so a crash-only plan draws no transport RNG).
  bool has_link_rules() const {
    return !link_spikes_.empty() || !duplicates_.empty() ||
           !reorders_.empty() || !corrupts_.empty();
  }

  /// True when any membership-plane rule exists. Gated separately from
  /// has_link_rules() so a plan with only data-plane rules inspects no
  /// gossip payloads (and vice versa) — keeping RNG draw sequences, and
  /// therefore run fingerprints, independent between the two families.
  bool has_membership_rules() const {
    return !gossip_blackouts_.empty() || !gossip_losses_.empty() ||
           !stale_injects_.empty() || !claim_inflates_.empty();
  }

  const std::vector<CrashEvent>& crashes() const { return crashes_; }
  const std::vector<PartitionRule>& partitions() const { return partitions_; }
  const std::vector<LinkSpikeRule>& link_spikes() const {
    return link_spikes_;
  }
  const std::vector<DuplicateRule>& duplicates() const { return duplicates_; }
  const std::vector<ReorderRule>& reorders() const { return reorders_; }
  const std::vector<CorruptRule>& corrupts() const { return corrupts_; }
  const std::vector<GossipBlackoutRule>& gossip_blackouts() const {
    return gossip_blackouts_;
  }
  const std::vector<GossipLossRule>& gossip_losses() const {
    return gossip_losses_;
  }
  const std::vector<StaleInjectRule>& stale_injects() const {
    return stale_injects_;
  }
  const std::vector<ClaimInflateRule>& claim_inflates() const {
    return claim_inflates_;
  }

 private:
  std::vector<CrashEvent> crashes_;
  // The same windows indexed by node id (ids are dense, [0, N)), each
  // node's in crash() order.
  struct CrashWindow {
    SimTime at;
    SimTime recover_at;
  };
  std::vector<std::vector<CrashWindow>> crash_windows_;
  std::vector<PartitionRule> partitions_;
  std::vector<LinkSpikeRule> link_spikes_;
  std::vector<DuplicateRule> duplicates_;
  std::vector<ReorderRule> reorders_;
  std::vector<CorruptRule> corrupts_;
  std::vector<GossipBlackoutRule> gossip_blackouts_;
  std::vector<GossipLossRule> gossip_losses_;
  std::vector<StaleInjectRule> stale_injects_;
  std::vector<ClaimInflateRule> claim_inflates_;
};

}  // namespace p2panon::fault
