#include "fault/fault_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace p2panon::fault {

namespace {

bool in_window(SimTime start, SimTime end, SimTime now) {
  return now >= start && now < end;
}

bool contains(const std::vector<NodeId>& nodes, NodeId node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

void check_probability(double p, const char* what) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                " probability must be in [0, 1]");
  }
}

}  // namespace

FaultPlan& FaultPlan::crash(NodeId node, SimTime at, SimTime recover_at) {
  if (recover_at <= at) {
    throw std::invalid_argument("FaultPlan::crash: recover_at must be > at");
  }
  crashes_.push_back(CrashEvent{node, at, recover_at});
  if (node >= crash_windows_.size()) {
    crash_windows_.resize(std::size_t{node} + 1);
  }
  crash_windows_[node].push_back(CrashWindow{at, recover_at});
  return *this;
}

FaultPlan& FaultPlan::partition(std::vector<NodeId> side_a,
                                std::vector<NodeId> side_b, SimTime start,
                                SimTime end) {
  if (side_a.empty()) {
    throw std::invalid_argument("FaultPlan::partition: side_a is empty");
  }
  partitions_.push_back(
      PartitionRule{std::move(side_a), std::move(side_b), start, end});
  return *this;
}

FaultPlan& FaultPlan::link_spike(LinkSpikeRule rule) {
  check_probability(rule.loss_rate, "link_spike loss");
  link_spikes_.push_back(std::move(rule));
  return *this;
}

FaultPlan& FaultPlan::duplicate(double probability, SimTime start,
                                SimTime end) {
  check_probability(probability, "duplicate");
  duplicates_.push_back(DuplicateRule{probability, start, end});
  return *this;
}

FaultPlan& FaultPlan::reorder(double probability, SimDuration max_extra_delay,
                              SimTime start, SimTime end) {
  check_probability(probability, "reorder");
  reorders_.push_back(ReorderRule{probability, max_extra_delay, start, end});
  return *this;
}

FaultPlan& FaultPlan::corrupt(double probability, SimTime start, SimTime end,
                              std::vector<NodeId> at_nodes) {
  check_probability(probability, "corrupt");
  corrupts_.push_back(CorruptRule{probability, start, end,
                                  std::move(at_nodes)});
  return *this;
}

FaultPlan& FaultPlan::gossip_blackout(SimTime start, SimTime end,
                                      std::vector<NodeId> endpoints) {
  gossip_blackouts_.push_back(
      GossipBlackoutRule{start, end, std::move(endpoints)});
  return *this;
}

FaultPlan& FaultPlan::gossip_loss(double loss_rate, SimTime start, SimTime end,
                                  std::vector<NodeId> endpoints) {
  check_probability(loss_rate, "gossip_loss");
  gossip_losses_.push_back(
      GossipLossRule{loss_rate, start, end, std::move(endpoints)});
  return *this;
}

FaultPlan& FaultPlan::stale_inject(double probability,
                                   SimDuration extra_staleness, SimTime start,
                                   SimTime end, std::vector<NodeId> at_nodes) {
  check_probability(probability, "stale_inject");
  stale_injects_.push_back(StaleInjectRule{probability, extra_staleness, start,
                                           end, std::move(at_nodes)});
  return *this;
}

FaultPlan& FaultPlan::claim_inflate(double probability, double factor,
                                    SimDuration boost, SimTime start,
                                    SimTime end, std::vector<NodeId> at_nodes) {
  check_probability(probability, "claim_inflate");
  if (factor < 1.0) {
    throw std::invalid_argument(
        "FaultPlan::claim_inflate: factor must be >= 1");
  }
  claim_inflates_.push_back(ClaimInflateRule{probability, factor, boost, start,
                                             end, std::move(at_nodes)});
  return *this;
}

bool FaultPlan::is_crashed(NodeId node, SimTime now) const {
  if (node >= crash_windows_.size()) return false;
  for (const CrashWindow& window : crash_windows_[node]) {
    if (in_window(window.at, window.recover_at, now)) return true;
  }
  return false;
}

bool FaultPlan::partitioned(NodeId from, NodeId to, SimTime now) const {
  for (const PartitionRule& rule : partitions_) {
    if (!in_window(rule.start, rule.end, now)) continue;
    const bool from_a = contains(rule.side_a, from);
    const bool to_a = contains(rule.side_a, to);
    if (from_a == to_a) continue;  // same side of the cut
    // The endpoint not in side_a must be in side_b (empty side_b = rest of
    // the network, which always matches).
    if (rule.side_b.empty()) return true;
    const NodeId other = from_a ? to : from;
    if (contains(rule.side_b, other)) return true;
  }
  return false;
}

}  // namespace p2panon::fault
