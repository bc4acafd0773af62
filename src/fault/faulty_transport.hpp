// Fault-injecting Transport decorator.
//
// Wraps any Transport (SimTransport for simulated runs, a test's in-process
// transport for protocol tests) and applies a FaultPlan's rules to every
// datagram handed to send(): crash drops, partition drops, spike loss,
// extra delay (via the simulator when one is provided; delay rules are
// ignored without it), duplication, bounded reordering, and byte
// corruption of forward-channel onions.
//
// Determinism contract: the decorator keeps its own RNG stream, and rules
// are only consulted (and the RNG only advanced) when the plan actually
// has rules of that class — so an empty plan forwards every datagram
// untouched, draws nothing, and leaves all seed-test results byte-
// identical to running without the decorator.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace p2panon::fault {

class FaultyTransport final : public net::Transport {
 public:
  /// Per-cause accounting; `injected` rules (duplicate/delay/corrupt/
  /// stale/inflate) do not drop the datagram and are counted separately
  /// from drops. The membership-plane fields are NOT part of
  /// ChaosResult::fingerprint() — its string format predates them and must
  /// stay byte-stable — they surface through the registry and the
  /// membership sweep's tables instead.
  struct Counters {
    std::uint64_t dropped_crash = 0;
    std::uint64_t dropped_partition = 0;
    std::uint64_t dropped_loss = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t dropped_gossip_blackout = 0;
    std::uint64_t dropped_gossip_loss = 0;
    std::uint64_t stale_injected = 0;
    std::uint64_t claims_inflated = 0;
    std::uint64_t total_dropped() const {
      return dropped_crash + dropped_partition + dropped_loss +
             dropped_gossip_blackout + dropped_gossip_loss;
    }
  };

  /// `simulator` enables the delay/reorder rules (and supplies the clock
  /// the time windows are evaluated against); without one, time is pinned
  /// to 0 so only rules whose window covers t=0 apply, and delays are
  /// ignored (an in-process transport has no time axis). Injections are
  /// mirrored into `metrics` (nullptr = global registry) as
  /// `fault_injections_total{kind=...}` plus the `fault_extra_delay_us`
  /// histogram of injected delay spikes.
  FaultyTransport(net::Transport& inner, const FaultPlan& plan,
                  std::uint64_t seed, sim::Simulator* simulator = nullptr,
                  obs::Registry* metrics = nullptr);

  void send(NodeId from, NodeId to, Bytes payload) override;
  void register_handler(NodeId node, Handler handler) override;

  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  std::uint64_t messages_sent() const override { return messages_sent_; }

  const Counters& counters() const { return counters_; }
  net::Transport& inner() { return inner_; }

  /// Per-sender corruption injections, keyed by the node whose outgoing
  /// datagram was flipped — the "which relay is lying" ground truth the
  /// suspicion layer's verdicts are scored against.
  const std::unordered_map<NodeId, std::uint64_t>& corruptions_by_node() const {
    return corrupted_by_node_;
  }

 private:
  SimTime now() const { return simulator_ != nullptr ? simulator_->now() : 0; }
  void dispatch(NodeId from, NodeId to, Bytes payload, SimDuration extra);

  /// Applies gossip-channel rules (blackout/loss drops, record mutation) to
  /// a membership datagram. Returns false when the datagram is dropped.
  bool apply_membership_rules(NodeId from, NodeId to, Bytes& payload,
                              SimTime when);

  void record_injection(const char* kind, obs::Counter* mirror, NodeId from,
                        NodeId to);

  net::Transport& inner_;
  const FaultPlan& plan_;
  sim::Simulator* simulator_;
  obs::Registry* metrics_;
  Rng rng_;
  Counters counters_;
  // Lazily-registered per-sender corruption series: a clean run (or a plan
  // with no corrupt rules) registers nothing, keeping metric dumps and
  // fingerprints identical to the pre-feature baseline.
  std::unordered_map<NodeId, std::uint64_t> corrupted_by_node_;
  std::unordered_map<NodeId, obs::Counter*> corrupt_node_ctrs_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
  obs::Counter* inj_crash_;
  obs::Counter* inj_partition_;
  obs::Counter* inj_loss_;
  obs::Counter* inj_duplicated_;
  obs::Counter* inj_delayed_;
  obs::Counter* inj_corrupted_;
  // Membership-plane mirrors, registered lazily on first injection, so a
  // plan without membership rules registers none of them.
  obs::Counter* inj_gossip_blackout_ = nullptr;
  obs::Counter* inj_gossip_loss_ = nullptr;
  obs::Counter* inj_stale_ = nullptr;
  obs::Counter* inj_inflate_ = nullptr;
  obs::HdrHistogram* extra_delay_us_;
};

}  // namespace p2panon::fault
