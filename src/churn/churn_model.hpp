// Churn model: alternating up/down sessions per node.
//
// Mirrors the paper's setup ("each node alternately leaves and rejoins the
// network; the interval between successive events follows a Pareto
// distribution"). Up and down intervals are drawn from the same
// distribution, giving ~50 % steady-state availability under symmetric
// distributions. Individual nodes can be pinned up (the paper pins the
// initiator and responder in Table 2).
//
// The model is the ground truth for node liveness: the transport asks it
// whether endpoints are alive, and the membership layer receives join/leave
// notifications from it (which it then disseminates by gossip — protocols
// never read the oracle directly).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "churn/distributions.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace p2panon::churn {

class ChurnModel {
 public:
  using ChurnListener = std::function<void(NodeId node, bool up, SimTime when)>;

  /// `initial_up_fraction` nodes start alive; the rest join later. The
  /// paper's experiments warm up for one simulated hour, so transients from
  /// the initial state wash out.
  ChurnModel(sim::Simulator& simulator, std::size_t num_nodes,
             const LifetimeDistribution& session_dist, Rng rng,
             double initial_up_fraction = 0.5);

  ChurnModel(const ChurnModel&) = delete;
  ChurnModel& operator=(const ChurnModel&) = delete;

  /// Schedules the first transition for every node. Call once before
  /// Simulator::run*.
  void start();

  /// Keeps a node up for the whole simulation (cancels pending transitions).
  void pin_up(NodeId node);

  /// Registers for join/leave callbacks; listeners fire in registration
  /// order at the event time.
  void subscribe(ChurnListener listener);

  bool is_up(NodeId node) const { return nodes_[node].up; }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t up_count() const { return up_count_; }

  /// Ground-truth seconds the node has been up, 0 if down. The membership
  /// layer estimates this via gossip; tests compare against this oracle.
  double alive_seconds(NodeId node, SimTime now) const;

  /// Fraction of node-time spent up over [0, now] (availability).
  double measured_availability(SimTime now) const;

  /// Total join events so far (diagnostics).
  std::uint64_t total_transitions() const { return transitions_; }

 private:
  struct NodeState {
    bool up = false;
    bool pinned = false;
    SimTime last_join = kNeverTime;
    SimTime up_accumulated = 0;  // total up-time excluding the open session
    sim::EventId next_transition = sim::kInvalidEventId;
  };

  void schedule_transition(NodeId node);
  void transition(NodeId node);
  void set_state(NodeId node, bool up);

  sim::Simulator& simulator_;
  std::unique_ptr<LifetimeDistribution> dist_;
  Rng rng_;
  std::vector<NodeState> nodes_;
  std::vector<ChurnListener> listeners_;
  std::size_t up_count_ = 0;
  std::uint64_t transitions_ = 0;
  bool started_ = false;
};

}  // namespace p2panon::churn
