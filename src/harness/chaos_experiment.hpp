// Chaos invariant harness: named fault scenarios + end-to-end accounting.
//
// Each run drives one protocol session (initiator -> responder) through a
// scripted FaultPlan scenario and closes the books afterwards. The point is
// not a performance number but a set of *invariants* that must hold under
// any fault schedule:
//
//   1. Conservation: every accepted message is delivered, or explainable —
//      at least one of its segments expired, or fewer than m segments
//      could be placed on established paths at send time. `unaccounted`
//      counts the violations and must be 0.
//   2. Segment ledger: segments_sent == acks_matched + segments_expired +
//      segments_retransmitted + pending (and pending == 0 after quiesce).
//   3. No residual state: after teardown plus one state-TTL sweep, no
//      pending segments, relay path state, pending constructions, reverse
//      handlers, or reassembly buffers remain anywhere in the network.
//   4. Determinism: two runs with identical config produce identical
//      fingerprints.
//
// With environment.sampled on, the Environment's health scoreboard watches
// the session's paths and its summary and table land in the result; the
// only other trace sampling leaves is one executed event per window.
#pragma once

#include <cstdint>
#include <string>

#include "anon/protocols.hpp"
#include "fault/fault_plan.hpp"
#include "harness/environment.hpp"
#include "harness/health.hpp"
#include "workload/workload.hpp"

namespace p2panon::harness {

enum class ChaosScenario {
  kFlashCrowdCrash,     // 25% of nodes crash at once, recover later
  kRollingPartition,    // 4 node blocks partitioned off in rolling windows
  kLossyLinkEpidemic,   // escalating global loss + delay spikes
  kCorruptedRelayQuorum,// 25% of nodes flip bytes in forward onions
  kMildLossDrizzle      // steady 5% per-datagram loss, whole window
};

const char* scenario_name(ChaosScenario scenario);

/// Builds the deterministic fault schedule for a scenario over the window
/// [start, end). Nodes 0 and 1 (the pinned endpoints) are never crashed,
/// partitioned away, or made byzantine; link-wide rules still affect their
/// traffic. `corrupt_probability` is the per-datagram flip chance each
/// byzantine relay applies in kCorruptedRelayQuorum (other scenarios
/// ignore it).
fault::FaultPlan make_scenario_plan(ChaosScenario scenario,
                                    std::size_t num_nodes, SimTime start,
                                    SimTime end, std::uint64_t seed,
                                    double corrupt_probability = 0.5);

struct ChaosConfig {
  EnvironmentConfig environment;
  anon::ProtocolSpec spec;
  ChaosScenario scenario = ChaosScenario::kFlashCrowdCrash;
  SimDuration warmup = 10 * kMinute;   // gossip convergence before faults
  SimDuration measure = 20 * kMinute;  // fault window + send window
  SimDuration send_interval = 5 * kSecond;
  std::size_t message_size = 512;
  NodeId initiator = 0;
  NodeId responder = 1;

  /// The initiator's session. Defaults: the paper's fixed 5 s timeouts
  /// with immediate retries, self-healing on (§4.5 failure detection ->
  /// §4.1 reconstruction) and a 500-attempt construction budget. Erasure
  /// parameters and mix choice come from `spec`, L from
  /// environment.path_length. With relay_suspicion on, the harness also
  /// arms suspicion tracking on the initiator's node cache.
  anon::SessionConfig session{.max_construct_attempts = 500,
                              .auto_reconstruct = true};

  /// Per-datagram corruption probability of the byzantine relays in
  /// kCorruptedRelayQuorum. The default matches the original scenario;
  /// the byzantine sweep varies it.
  double byzantine_probability = 0.5;

  /// Workload engine (off = the classic fixed-interval 0xc7 pump, byte
  /// identical to the pre-workload harness). On: Poisson arrivals of mixed
  /// bulk/interactive/streaming messages shaped by `workload.shape`, driven
  /// by a dedicated RNG stream forked after all legacy forks. The relay
  /// overload policy is environment.router.overload.
  workload::WorkloadConfig workload;
};

struct ChaosResult {
  bool constructed = false;
  std::size_t construct_attempts = 0;

  // Message conservation.
  std::uint64_t send_attempts = 0;      // send_message calls
  std::uint64_t messages_accepted = 0;  // nonzero id returned
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_failed = 0;    // undelivered but explainable
  std::uint64_t messages_unaccounted = 0;  // invariant: 0
  std::uint64_t reassemblies_expired = 0;  // responder-side TTL expiries

  // Byzantine accounting: every delivery is scored against the payload the
  // sender actually sent. `delivered_wrong` is the integrity failure the
  // segment-auth tentpole exists to eliminate — with tags on it must be 0
  // at any corruption rate (fail closed, never fabricate).
  std::uint64_t messages_delivered_correct = 0;
  std::uint64_t messages_delivered_wrong = 0;
  std::uint64_t auth_verified = 0;    // responder-side tag successes
  std::uint64_t auth_rejected = 0;    // responder-side tag failures
  std::uint64_t auth_nacks = 0;       // corrupt-nacks sent back
  std::uint64_t suspicion_reports = 0;  // corrupt + stall evidence filed
  std::uint64_t quarantined_nodes = 0;  // gauge at end of run

  // Segment ledger (session counters after quiesce).
  std::uint64_t segments_sent = 0;
  std::uint64_t acks_matched = 0;
  std::uint64_t segments_expired = 0;
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t rebuilds = 0;

  // Residual state after teardown + TTL sweep (invariant: all 0).
  std::size_t leaked_pending_segments = 0;
  std::size_t leaked_path_state = 0;
  std::size_t leaked_pending_constructions = 0;
  std::size_t leaked_reverse_handlers = 0;
  std::size_t leaked_reassembly = 0;

  // Injection + drop accounting.
  fault::FaultyTransport::Counters faults;
  /// Per-cause transport drops, read back from the run's metrics registry
  /// (`net_drops_total{cause=...}`): the registry is the single source of
  /// truth now that SimTransport keeps no bespoke drop counters.
  struct DropStats {
    std::uint64_t sender_dead = 0;
    std::uint64_t receiver_dead = 0;
    std::uint64_t link_loss = 0;
    std::uint64_t no_handler = 0;
    std::uint64_t total() const {
      return sender_dead + receiver_dead + link_loss + no_handler;
    }
  };
  DropStats drops;
  std::uint64_t peel_failures = 0;
  std::uint64_t executed_events = 0;

  /// Populated only when config.environment.sampled.
  HealthSummary health;
  std::string health_table;  // rendered scoreboard, empty when disabled

  // ---- Overload accounting (NOT part of fingerprint(): the 38-field
  // digest predates the overload layer and committed baselines pin it).
  // All zero unless the workload engine is on or the overload policy is
  // not kOff.
  struct ClassStats {
    std::uint64_t attempts = 0;   // send_message calls for this class
    std::uint64_t accepted = 0;   // nonzero id returned
    std::uint64_t delivered = 0;
    double goodput() const {
      return attempts == 0 ? 0.0
                           : static_cast<double>(delivered) /
                                 static_cast<double>(attempts);
    }
  };
  ClassStats per_class[3];  // indexed by workload::TrafficClass
  /// End-to-end latency of delivered interactive messages (microseconds).
  std::uint64_t interactive_p50_us = 0;
  std::uint64_t interactive_p99_us = 0;
  // Relay-side overload counters, read back from the run's registry.
  std::uint64_t relay_sheds_bulk = 0;
  std::uint64_t relay_sheds_streaming = 0;
  std::uint64_t relay_sheds_interactive = 0;
  std::uint64_t relay_sheds_control = 0;  // invariant: 0 always
  std::uint64_t backpressure_signals = 0;
  // Session-side overload counters, read back from the same registry (the
  // harness runs one session).
  std::uint64_t session_messages_shed = 0;
  std::uint64_t session_segments_deferred = 0;
  std::uint64_t session_backpressure_rx = 0;
  std::uint64_t session_stalls_suppressed = 0;

  double delivery_rate() const {
    return messages_accepted == 0
               ? 0.0
               : static_cast<double>(messages_delivered) /
                     static_cast<double>(messages_accepted);
  }
  /// Fraction of accepted messages delivered with exactly the sent bytes.
  double correct_rate() const {
    return messages_accepted == 0
               ? 0.0
               : static_cast<double>(messages_delivered_correct) /
                     static_cast<double>(messages_accepted);
  }
  /// Delivered fraction of everything the application *tried* to send.
  /// Unlike delivery_rate() this charges a protocol for refusing sends
  /// while its paths are down (send_message returning 0), so protocols
  /// that stall under faults cannot hide behind a shrunken denominator.
  double attempted_delivery_rate() const {
    return send_attempts == 0
               ? 0.0
               : static_cast<double>(messages_delivered) /
                     static_cast<double>(send_attempts);
  }
  bool ledger_closed() const {
    return segments_sent == acks_matched + segments_expired +
                                segments_retransmitted +
                                leaked_pending_segments;
  }
  std::size_t total_leaks() const {
    return leaked_pending_segments + leaked_path_state +
           leaked_pending_constructions + leaked_reverse_handlers +
           leaked_reassembly;
  }
  /// Accounting violations: unaccounted messages plus residual-state leaks,
  /// and one more when the segment ledger does not close.
  std::uint64_t violations() const {
    return messages_unaccounted + total_leaks() + (ledger_closed() ? 0 : 1);
  }
  /// Order-sensitive digest of every counter — equal fingerprints mean
  /// bit-identical runs.
  std::string fingerprint() const;
};

ChaosResult run_chaos_experiment(const ChaosConfig& config);

}  // namespace p2panon::harness
