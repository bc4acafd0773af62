#include "harness/chaos_experiment.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "anon/session.hpp"
#include "common/logging.hpp"

namespace p2panon::harness {

namespace {

// Faults start this long after warmup ends, so path construction (which
// begins at warmup) races a healthy network, not the fault wave. Sized to
// cover the adaptive mode's construction backoff chain too.
constexpr SimDuration kFaultGrace = 150 * kSecond;
// Drain in-flight traffic after the send window, before teardown.
constexpr SimDuration kQuiesce = 2 * kMinute;

/// Deterministically picks `count` distinct victims from [2, num_nodes)
/// (partial Fisher-Yates) — the pinned endpoints 0 and 1 are never chosen.
std::vector<NodeId> pick_victims(std::size_t num_nodes, std::size_t count,
                                 Rng& rng) {
  std::vector<NodeId> candidates;
  for (NodeId node = 2; node < num_nodes; ++node) candidates.push_back(node);
  count = std::min(count, candidates.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + rng.next_below(candidates.size() - i);
    std::swap(candidates[i], candidates[j]);
  }
  candidates.resize(count);
  return candidates;
}

}  // namespace

const char* scenario_name(ChaosScenario scenario) {
  switch (scenario) {
    case ChaosScenario::kFlashCrowdCrash: return "flash-crowd-crash";
    case ChaosScenario::kRollingPartition: return "rolling-partition";
    case ChaosScenario::kLossyLinkEpidemic: return "lossy-link-epidemic";
    case ChaosScenario::kCorruptedRelayQuorum: return "corrupted-relay-quorum";
    case ChaosScenario::kMildLossDrizzle: return "mild-loss-drizzle";
  }
  return "unknown";
}

fault::FaultPlan make_scenario_plan(ChaosScenario scenario,
                                    std::size_t num_nodes, SimTime start,
                                    SimTime end, std::uint64_t seed,
                                    double corrupt_probability) {
  fault::FaultPlan plan;
  Rng rng(seed ^ (0xC4A05ULL +
                  static_cast<std::uint64_t>(scenario) *
                      0x9e3779b97f4a7c15ULL));
  const SimDuration span = end - start;
  const std::size_t quarter =
      num_nodes > 2 ? (num_nodes - 2) / 4 : 0;

  switch (scenario) {
    case ChaosScenario::kFlashCrowdCrash: {
      // A quarter of the network dies simultaneously mid-window and comes
      // back a quarter-window later — correlated churn far beyond the
      // Pareto model. The window is the shared workload::flash_crowd_window
      // so the crash epoch and the workload engine's load spike coincide by
      // construction.
      const workload::FlashWindow window =
          workload::flash_crowd_window(start, span);
      for (NodeId victim : pick_victims(num_nodes, quarter, rng)) {
        plan.crash(victim, window.begin, window.end);
      }
      break;
    }
    case ChaosScenario::kRollingPartition: {
      // Four contiguous blocks are cut off from the rest of the network in
      // consecutive quarter-windows (a partition "rolling" through it).
      for (std::size_t b = 0; b < 4; ++b) {
        std::vector<NodeId> block;
        const std::size_t lo = 2 + b * quarter;
        for (std::size_t n = lo; n < lo + quarter && n < num_nodes; ++n) {
          block.push_back(static_cast<NodeId>(n));
        }
        if (block.empty()) continue;
        const SimTime wstart = start + static_cast<SimDuration>(b) * span / 4;
        const SimTime wend = start + static_cast<SimDuration>(b + 1) * span / 4;
        plan.partition(std::move(block), {}, wstart, wend);
      }
      break;
    }
    case ChaosScenario::kLossyLinkEpidemic: {
      // Escalating network-wide loss + delay spikes: 10%, then 25%, then
      // 40% datagram loss over consecutive thirds of the window.
      const double loss[3] = {0.10, 0.25, 0.40};
      const SimDuration delay[3] = {0, 100 * kMillisecond, 200 * kMillisecond};
      for (std::size_t t = 0; t < 3; ++t) {
        fault::LinkSpikeRule rule;
        rule.loss_rate = loss[t];
        rule.extra_delay_max = delay[t];
        rule.start = start + static_cast<SimDuration>(t) * span / 3;
        rule.end = start + static_cast<SimDuration>(t + 1) * span / 3;
        plan.link_spike(rule);
      }
      break;
    }
    case ChaosScenario::kCorruptedRelayQuorum: {
      // A quarter of the nodes turn byzantine for the whole window: a
      // fraction of the forward onions they emit have one byte flipped, so
      // AEAD peels (or the responder's tag check) reject them downstream.
      plan.corrupt(corrupt_probability, start, end,
                   pick_victims(num_nodes, quarter, rng));
      break;
    }
    case ChaosScenario::kMildLossDrizzle: {
      // Steady 5% per-datagram loss, no delay spikes. Keeps per-segment
      // end-to-end survival around 0.81 over a 4-link path — the regime
      // where erasure-coded redundancy provably beats replication per
      // message (once survival drops below ~0.68, needing m-of-n arrivals
      // inverts the comparison).
      fault::LinkSpikeRule rule;
      rule.loss_rate = 0.05;
      rule.start = start;
      rule.end = end;
      plan.link_spike(rule);
      break;
    }
  }
  return plan;
}

std::string ChaosResult::fingerprint() const {
  std::ostringstream out;
  out << constructed << ':' << construct_attempts << ':' << send_attempts
      << ':' << messages_accepted << ':' << messages_delivered << ':'
      << messages_failed << ':' << messages_unaccounted << ':'
      << segments_sent << ':' << acks_matched << ':' << segments_expired
      << ':' << segments_retransmitted << ':' << failures_detected << ':'
      << rebuilds << ':' << leaked_pending_segments << ':'
      << leaked_path_state << ':' << leaked_pending_constructions << ':'
      << leaked_reverse_handlers << ':' << leaked_reassembly << ':'
      << faults.dropped_crash << ':' << faults.dropped_partition << ':'
      << faults.dropped_loss << ':' << faults.duplicated << ':'
      << faults.delayed << ':' << faults.corrupted << ':'
      << drops.sender_dead << ':' << drops.receiver_dead << ':'
      << drops.link_loss << ':' << drops.no_handler << ':' << peel_failures
      << ':' << reassemblies_expired << ':' << executed_events << ':'
      << messages_delivered_correct << ':' << messages_delivered_wrong
      << ':' << auth_verified << ':' << auth_rejected << ':' << auth_nacks
      << ':' << suspicion_reports << ':' << quarantined_nodes;
  return out.str();
}

ChaosResult run_chaos_experiment(const ChaosConfig& config) {
  static const auto kSendEvent = obs::capacity::event_type("harness.send");
  const SimTime fault_start = config.warmup + kFaultGrace;
  const SimTime fault_end = config.warmup + config.measure;
  const fault::FaultPlan plan = make_scenario_plan(
      config.scenario, config.environment.num_nodes, fault_start, fault_end,
      config.environment.seed, config.byzantine_probability);

  EnvironmentConfig env_config = config.environment;
  env_config.fault_plan = &plan;
  Environment env(env_config);
  env.churn().pin_up(config.initiator);
  env.churn().pin_up(config.responder);

  ChaosResult result;

  anon::SessionConfig base_session = config.session;
  base_session.path_length = env_config.path_length;

  membership::NodeCache& initiator_cache =
      env.membership().cache(config.initiator);
  if (base_session.relay_suspicion) {
    // Arm the evidence ledger before the session builds any path; the
    // session itself only *reports* into it (reporting is const).
    initiator_cache.enable_suspicion();
  }

  anon::Session session(env.router(), initiator_cache, config.initiator,
                        config.responder,
                        config.spec.session_config(base_session),
                        env.rng().fork());

  // Workload engine: forked *after* the session (and gated on the knob) so
  // legacy runs keep every existing RNG draw in place. The engine's flash
  // window is the same [fault_start, fault_end) span the fault plan uses,
  // so the kFlashCrowdCrash crash epoch and the load spike coincide.
  std::unique_ptr<workload::WorkloadEngine> engine;
  if (config.workload.enabled) {
    engine = std::make_unique<workload::WorkloadEngine>(
        config.workload, fault_start, fault_end - fault_start,
        env.rng().fork());
  }

  // Per-message conservation bookkeeping.
  struct Track {
    std::size_t segments_placed = 0;
    std::size_t expired = 0;
    bool delivered = false;
    bool reassembly_expired = false;
    std::uint8_t cls = 0;      // workload::TrafficClass (workload runs only)
    std::size_t size = 0;      // payload bytes (workload runs only)
    SimTime sent_at = 0;
  };
  std::unordered_map<MessageId, Track> tracks;
  std::vector<SimDuration> interactive_latencies;

  const Bytes expected_payload(config.message_size, 0xc7);
  env.router().set_message_handler([&](const anon::ReceivedMessage& msg) {
    if (msg.responder != config.responder) return;
    const auto it = tracks.find(msg.message_id);
    if (it == tracks.end() || it->second.delivered) return;
    it->second.delivered = true;
    ++result.messages_delivered;
    // Score the delivery against the bytes actually sent: a reconstruction
    // that "succeeds" with different bytes is the integrity failure the
    // auth trailer exists to turn into a closed failure.
    bool correct;
    if (config.workload.enabled) {
      correct = msg.data.size() == it->second.size &&
                std::all_of(msg.data.begin(), msg.data.end(),
                            [](std::uint8_t b) { return b == 0xc7; });
      auto& cls_stats = result.per_class[it->second.cls];
      ++cls_stats.delivered;
      if (it->second.cls ==
          static_cast<std::uint8_t>(workload::TrafficClass::kInteractive)) {
        interactive_latencies.push_back(env.simulator().now() -
                                        it->second.sent_at);
      }
    } else {
      correct = msg.data == expected_payload;
    }
    if (correct) {
      ++result.messages_delivered_correct;
    } else {
      ++result.messages_delivered_wrong;
    }
  });
  session.set_segment_expiry_handler(
      [&](MessageId id, std::uint32_t, std::size_t) {
        const auto it = tracks.find(id);
        if (it != tracks.end()) ++it->second.expired;
      });
  env.router().set_reassembly_expiry_handler([&](NodeId responder,
                                                 MessageId id) {
    if (responder != config.responder) return;
    const auto it = tracks.find(id);
    if (it != tracks.end()) it->second.reassembly_expired = true;
  });

  const SimTime measure_end = fault_end;
  // The self-rescheduling sender lives in this frame, which outlives every
  // run_until below — the copies the simulator stores capture it by
  // reference only (a shared self-holding closure would be a refcount
  // cycle LeakSanitizer flags).
  std::function<void()> send_one;
  send_one = [&]() {
    const SimTime now = env.simulator().now();
    if (now > measure_end) return;
    const Bytes payload(config.message_size, 0xc7);
    const std::uint64_t segments_before = session.segments_sent();
    ++result.send_attempts;
    const MessageId id = session.send_message(payload);
    if (id != 0) {
      ++result.messages_accepted;
      tracks[id].segments_placed = static_cast<std::size_t>(
          session.segments_sent() - segments_before);
    }
    env.simulator().schedule_after(config.send_interval, send_one,
                                  kSendEvent);
  };
  // Workload-driven pump: Poisson arrivals of class-tagged messages. Each
  // send computes the next arrival from the engine and self-reschedules,
  // exactly like send_one but with variable waits, sizes, and priorities.
  std::function<void(workload::Arrival)> pump_send;
  pump_send = [&](workload::Arrival arrival) {
    env.simulator().schedule_after(
        arrival.wait,
        [&, arrival] {
          const SimTime now = env.simulator().now();
          if (now > measure_end) return;
          const Bytes payload(arrival.size, 0xc7);
          anon::SegmentPriority prio = anon::SegmentPriority::kInteractive;
          switch (arrival.cls) {
            case workload::TrafficClass::kBulk:
              prio = anon::SegmentPriority::kBulk;
              break;
            case workload::TrafficClass::kStreaming:
              prio = anon::SegmentPriority::kStreaming;
              break;
            case workload::TrafficClass::kInteractive:
              break;
          }
          const std::uint64_t segments_before = session.segments_sent();
          ++result.send_attempts;
          auto& cls_stats =
              result.per_class[static_cast<std::size_t>(arrival.cls)];
          ++cls_stats.attempts;
          const MessageId id = session.send_message(payload, prio);
          if (id != 0) {
            ++result.messages_accepted;
            ++cls_stats.accepted;
            Track& track = tracks[id];
            track.segments_placed = static_cast<std::size_t>(
                session.segments_sent() - segments_before);
            track.cls = static_cast<std::uint8_t>(arrival.cls);
            track.size = arrival.size;
            track.sent_at = now;
          }
          pump_send(engine->next(now));
        },
        kSendEvent);
  };
  env.simulator().schedule_at(
      config.warmup,
      [&] {
        session.construct([&](bool ok, std::size_t attempts) {
          result.constructed = ok;
          result.construct_attempts = attempts;
          if (!ok) return;
          if (config.workload.enabled) {
            pump_send(engine->next(env.simulator().now()));
          } else {
            send_one();
          }
        });
      },
      kSendEvent);

  if (HealthScoreboard* health = env.health()) health->attach_session(session);
  env.start();
  env.simulator().run_until(measure_end + kQuiesce);

  // Close the books: teardown drains every still-pending segment into the
  // expired ledger, then one full state-TTL interval plus a sweep period
  // lets relay-side state (including state orphaned on crashed or
  // partitioned relays that never saw the teardown) expire.
  session.teardown();
  const SimDuration ttl = std::max(env_config.router.state_ttl,
                                   anon::AnonRouter::kReassemblyTtl);
  env.simulator().run_until(env.simulator().now() + ttl +
                            env_config.router.sweep_interval + 30 * kSecond);

  // Conservation: every accepted message must be delivered or explainable.
  const std::size_t needed = session.config().erasure.m;
  for (const auto& [id, track] : tracks) {
    if (track.delivered) continue;
    if (track.expired > 0 || track.segments_placed < needed ||
        track.reassembly_expired) {
      ++result.messages_failed;
    } else {
      ++result.messages_unaccounted;
    }
  }

  result.segments_sent = session.segments_sent();
  result.acks_matched = session.acks_matched();
  result.segments_expired = session.segments_expired();
  result.segments_retransmitted = session.segments_retransmitted();
  result.failures_detected = session.path_failures_detected();
  for (const auto& info : session.paths()) result.rebuilds += info.rebuilds;

  result.leaked_pending_segments = session.pending_segment_count();
  for (NodeId node = 0; node < env_config.num_nodes; ++node) {
    result.leaked_path_state += env.router().path_state_count(node);
    result.leaked_pending_constructions +=
        env.router().pending_construction_count(node);
    result.leaked_reverse_handlers += env.router().reverse_handler_count(node);
    result.leaked_reassembly += env.router().reassembly_count(node);
  }

  if (env.faulty_transport() != nullptr) {
    result.faults = env.faulty_transport()->counters();
  }
  obs::Registry& reg = env.metrics();
  result.drops.sender_dead =
      reg.counter_value("net_drops_total", {{"cause", "sender_dead"}});
  result.drops.receiver_dead =
      reg.counter_value("net_drops_total", {{"cause", "receiver_dead"}});
  result.drops.link_loss =
      reg.counter_value("net_drops_total", {{"cause", "link_loss"}});
  result.drops.no_handler =
      reg.counter_value("net_drops_total", {{"cause", "no_handler"}});
  result.peel_failures = env.router().peel_failures();
  result.reassemblies_expired = env.router().reassemblies_expired();
  result.executed_events = env.simulator().executed_events();
  result.auth_verified =
      reg.counter_value("anon_segment_auth_total", {{"result", "verified"}});
  result.auth_rejected =
      reg.counter_value("anon_segment_auth_total", {{"result", "rejected"}});
  result.auth_nacks = reg.counter_value("anon_segment_auth_nacks_total");
  result.suspicion_reports =
      reg.counter_value("membership_suspicion_reports_total",
                        {{"evidence", "corrupt"}}) +
      reg.counter_value("membership_suspicion_reports_total",
                        {{"evidence", "stall"}});
  result.quarantined_nodes = static_cast<std::uint64_t>(initiator_cache
          .quarantined_count(env.simulator().now()));
  result.relay_sheds_bulk =
      reg.counter_value("anon_overload_sheds_total", {{"class", "bulk"}});
  result.relay_sheds_streaming =
      reg.counter_value("anon_overload_sheds_total", {{"class", "streaming"}});
  result.relay_sheds_interactive = reg.counter_value(
      "anon_overload_sheds_total", {{"class", "interactive"}});
  result.relay_sheds_control =
      reg.counter_value("anon_overload_sheds_total", {{"class", "control"}});
  result.backpressure_signals =
      reg.counter_value("anon_backpressure_signals_total");
  result.session_messages_shed =
      reg.counter_value("session_sheds_total", {{"cause", "queue_full"}}) +
      reg.counter_value("session_sheds_total", {{"cause", "bulk_headroom"}});
  result.session_segments_deferred =
      reg.counter_value("session_sheds_total", {{"cause", "congested_path"}});
  result.session_backpressure_rx = reg.counter_value(
      "session_backpressure_total", {{"event", "received"}});
  result.session_stalls_suppressed = reg.counter_value(
      "session_backpressure_total", {{"event", "stall_suppressed"}});
  if (!interactive_latencies.empty()) {
    std::sort(interactive_latencies.begin(), interactive_latencies.end());
    const std::size_t n = interactive_latencies.size();
    result.interactive_p50_us =
        static_cast<std::uint64_t>(interactive_latencies[n / 2]);
    result.interactive_p99_us = static_cast<std::uint64_t>(
        interactive_latencies[std::min(n - 1, (n * 99) / 100)]);
  }
  if (const HealthScoreboard* health = env.health()) {
    result.health = health->summary();
    result.health_table = health->table();
  }
  return result;
}

}  // namespace p2panon::harness
