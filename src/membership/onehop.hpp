// OneHop-style hierarchical membership dissemination (Gupta, Liskov,
// Rodrigues, NSDI'04), simplified to the level the paper depends on.
//
// The id space is partitioned into `units`. Each unit has a leader (the
// live node with the lowest id in the unit). Membership events flow:
//
//   observer --(event)--> own unit leader --(event)--> all unit leaders
//        unit leader --(periodic keepalive batch)--> unit members
//
// which is the paper's "hierarchical gossip protocol (among slice leaders,
// unit leaders and unit members)" collapsed to one leader level. Liveness
// information (dt_alive / dt_since) is piggybacked on every hop, exactly as
// the paper's augmentation of OneHop prescribes. Leader election is
// resolved from churn ground truth when a leader dies (a simulator shortcut
// for OneHop's in-band leader recovery; see DESIGN.md substitutions).
//
// GossipMembership is the default provider; this variant exists to show
// the protocols are agnostic to the dissemination substrate and to compare
// dissemination quality (tests/membership_test.cpp).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "churn/churn_model.hpp"
#include "common/rng.hpp"
#include "membership/node_cache.hpp"
#include "membership/provider.hpp"
#include "membership/record_codec.hpp"
#include "net/demux.hpp"
#include "sim/simulator.hpp"

namespace p2panon::membership {

struct OneHopConfig {
  std::size_t units = 32;  // id-space partitions

  /// Deterministic leader failover (control-plane resilience, DESIGN §9;
  /// off by default). The ground-truth mode
  /// resolves each unit's leader from churn state directly — a simulator
  /// shortcut that a fault-plan crash (invisible to the churn model)
  /// silently defeats: the crashed leader keeps its role while every
  /// keepalive it sends is dropped, and the unit's caches rot. With
  /// failover on, leadership is a pure function of each node's *believed*
  /// membership (lowest believed-alive id in the unit): every node runs a
  /// watchdog; members that miss 3 keepalive intervals declare the leader
  /// dead, re-elect locally, and the new leader announces itself to the
  /// unit and to the other leaders. A recovered lower-id leader reclaims
  /// the role automatically the moment its keepalives are heard again.
  bool deterministic_failover = false;
};

class OneHopMembership final : public MembershipProvider {
 public:
  OneHopMembership(sim::Simulator& simulator, net::Demux& demux,
                   churn::ChurnModel& churn_model, OneHopConfig config,
                   Rng rng);
  OneHopMembership(const OneHopMembership&) = delete;
  OneHopMembership& operator=(const OneHopMembership&) = delete;

  void start() override;

  NodeCache& cache(NodeId node) override { return caches_[node]; }
  const NodeCache& cache(NodeId node) const override { return caches_[node]; }

  SimDuration own_uptime(NodeId node) const override;

  /// Current leader of a unit (live node with lowest id), kInvalidNode if
  /// the whole unit is down. Ground-truth view (churn only — fault-plan
  /// crashes are invisible here; see OneHopConfig::deterministic_failover).
  NodeId unit_leader(std::size_t unit) const;

  /// The leader `observer` would follow: the lowest id in the unit that
  /// observer believes alive (itself counts). Pure function of the
  /// observer's cache — no hidden election state, so two nodes with the
  /// same beliefs always agree.
  NodeId believed_leader(NodeId observer, std::size_t unit) const;

  std::size_t unit_of(NodeId node) const;

  double belief_accuracy() const override;

  std::size_t num_nodes() const override { return caches_.size(); }
  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  ControlStats control_stats() const override { return control_stats_; }

  void byte_census(obs::capacity::ByteCensus& census) const override;

 private:
  void on_churn(NodeId node, bool up, SimTime when);
  void deliver_event(NodeId observer, NodeId subject);
  void handle_message(NodeId from, NodeId to, ByteView payload);
  void keepalive_tick(std::size_t unit);
  void watchdog_tick(NodeId node);
  void keepalive_send(NodeId leader, std::size_t unit, bool always_send);
  void announce_leader(NodeId node, std::size_t unit);
  void send_message(NodeId from, NodeId to, ByteView msg);
  /// Sends one event to every other unit's leader, as `leader` sees them.
  void send_inter_leader(NodeId leader, NodeId subject,
                         const LivenessInfo& info);
  void send_snapshot(NodeId leader, NodeId joiner);
  /// The unit's id range [begin, end).
  std::pair<std::size_t, std::size_t> unit_range(std::size_t unit) const;

  sim::Simulator& simulator_;
  net::Demux& demux_;
  churn::ChurnModel& churn_;
  OneHopConfig config_;
  Rng rng_;

  std::vector<NodeCache> caches_;
  // Events a leader has accepted and not yet pushed to its unit members.
  std::vector<std::vector<NodeId>> pending_unit_events_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> keepalive_tasks_;
  // Failover mode: per-node watchdogs (phases from per-node streams) and
  // the last time each node heard from a unit leader.
  std::vector<std::unique_ptr<sim::PeriodicTask>> watchdog_tasks_;
  std::vector<Rng> node_rngs_;
  std::vector<SimTime> last_leader_heard_;
  // Every message is written here, then copied once by Demux::send.
  // Transports deliver later, never inside send(), so no handler can
  // rewrite it while a keepalive or announcement is still being sent.
  RecordWriter writer_;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  ControlStats control_stats_;
};

}  // namespace p2panon::membership
