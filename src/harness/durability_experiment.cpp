#include "harness/durability_experiment.hpp"

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "anon/session.hpp"
#include "common/logging.hpp"
#include "harness/parallel.hpp"

namespace p2panon::harness {

namespace {

/// Ground-truth path-set lifetime tracker. Watches churn: a path dies the
/// first time any of its relays leaves; the set dies per the protocol's
/// condition (alive paths < min_paths).
class DurabilityMonitor {
 public:
  DurabilityMonitor(churn::ChurnModel& churn, std::size_t min_paths)
      : min_paths_(min_paths) {
    churn.subscribe([this](NodeId node, bool up, SimTime when) {
      if (!armed_ || up || dead_) return;
      on_leave(node, when);
    });
  }

  /// Arms the monitor with the established paths' relay lists.
  void arm(const std::vector<std::vector<NodeId>>& paths, SimTime now) {
    paths_alive_ = 0;
    relay_to_paths_.clear();
    path_alive_.assign(paths.size(), false);
    for (std::size_t j = 0; j < paths.size(); ++j) {
      if (paths[j].empty()) continue;
      path_alive_[j] = true;
      ++paths_alive_;
      for (NodeId relay : paths[j]) {
        relay_to_paths_[relay].push_back(j);
      }
    }
    armed_ = true;
    dead_ = false;
    armed_at_ = now;
    if (paths_alive_ < min_paths_) {
      dead_ = true;
      died_at_ = now;
    }
  }

  bool dead() const { return dead_; }
  SimTime died_at() const { return died_at_; }
  SimTime armed_at() const { return armed_at_; }

  double lifetime_seconds(SimTime now, SimDuration cap) const {
    if (!armed_) return 0.0;
    const SimTime end = dead_ ? died_at_ : now;
    const SimDuration life = end - armed_at_;
    return to_seconds(std::min(life, cap));
  }

 private:
  void on_leave(NodeId node, SimTime when) {
    const auto it = relay_to_paths_.find(node);
    if (it == relay_to_paths_.end()) return;
    for (std::size_t j : it->second) {
      if (path_alive_[j]) {
        path_alive_[j] = false;
        --paths_alive_;
      }
    }
    if (paths_alive_ < min_paths_ && !dead_) {
      dead_ = true;
      died_at_ = when;
    }
  }

  std::size_t min_paths_;
  std::unordered_map<NodeId, std::vector<std::size_t>> relay_to_paths_;
  std::vector<bool> path_alive_;
  std::size_t paths_alive_ = 0;
  bool armed_ = false;
  bool dead_ = false;
  SimTime armed_at_ = 0;
  SimTime died_at_ = 0;
};

}  // namespace

DurabilityResult run_durability_experiment(const DurabilityConfig& config) {
  static const auto kSendEvent = obs::capacity::event_type("harness.send");
  Environment env(config.environment);
  env.churn().pin_up(config.initiator);
  env.churn().pin_up(config.responder);

  DurabilityResult result;

  anon::SessionConfig base_session = config.session;
  base_session.path_length = config.environment.path_length;

  anon::Session session(env.router(),
                        env.membership().cache(config.initiator),
                        config.initiator, config.responder,
                        config.spec.session_config(base_session),
                        env.rng().fork());

  DurabilityMonitor monitor(env.churn(),
                            session.config().erasure.min_paths());

  // Delivery bookkeeping: send time per message id, payload-byte watermark
  // per message for per-delivery bandwidth attribution (messages are 10 s
  // apart, far longer than any in-flight activity).
  std::unordered_map<MessageId, SimTime> send_times;
  MessageId current_message = 0;
  std::uint64_t bytes_at_send = 0;

  env.router().set_message_handler([&](const anon::ReceivedMessage& msg) {
    if (msg.responder != config.responder) return;
    const auto it = send_times.find(msg.message_id);
    if (it == send_times.end()) return;
    ++result.messages_delivered;
    result.latency_ms.add(to_millis(msg.reconstructed_at - it->second));
  });

  const SimTime measure_end = config.warmup + config.measure;

  // Periodic sender. Bandwidth attribution for message i happens just
  // before message i+1 is sent. The closure lives in this frame, which
  // outlives every simulator run below, so the copies stored in simulator
  // events capture it by reference only (a shared self-holding closure
  // would be a refcount cycle LeakSanitizer flags).
  std::function<void()> send_one;
  send_one = [&]() {
    const SimTime now = env.simulator().now();
    if (now > measure_end) return;
    // Attribute the previous message's bytes if it was delivered.
    if (current_message != 0) {
      const std::uint64_t spent =
          env.router().payload_bytes() - bytes_at_send;
      if (send_times.count(current_message) > 0 && spent > 0 &&
          result.messages_delivered > result.bandwidth_bytes.count()) {
        result.bandwidth_bytes.add(static_cast<double>(spent));
      }
    }
    bytes_at_send = env.router().payload_bytes();
    Bytes payload(config.message_size, 0xab);
    const MessageId id = session.send_message(payload);
    if (id != 0) {
      ++result.messages_sent;
      send_times[id] = now;
      current_message = id;
    } else {
      current_message = 0;
    }
    env.simulator().schedule_after(config.send_interval, send_one,
                                  kSendEvent);
  };

  // At warm-up end: construct (with retries inside the session), arm the
  // durability monitor, then start the periodic sender.
  env.simulator().schedule_at(config.warmup, [&] {
    session.construct([&](bool ok, std::size_t attempts) {
      result.constructed = ok;
      result.construct_attempts = attempts;
      if (!ok) {
        env.simulator().stop();
        return;
      }
      std::vector<std::vector<NodeId>> established;
      for (const auto& info : session.paths()) {
        established.push_back(info.state == anon::PathState::kEstablished
                                  ? info.relays
                                  : std::vector<NodeId>{});
      }
      monitor.arm(established, env.simulator().now());
      send_one();
    });
  });

  if (HealthScoreboard* health = env.health()) health->attach_session(session);
  env.start();
  env.simulator().run_until(measure_end + 30 * kSecond);

  if (const HealthScoreboard* health = env.health()) {
    result.health = health->summary();
    result.health_table = health->table();
  }
  result.durability_seconds =
      result.constructed
          ? monitor.lifetime_seconds(measure_end, config.measure)
          : 0.0;
  // End-of-run observational reads (after the simulator stops, so they
  // cannot perturb anything).
  if (env.faulty_transport() != nullptr) {
    result.faults = env.faulty_transport()->counters();
  }
  result.belief_accuracy = env.membership().belief_accuracy();
  result.mix_stale_fallbacks = session.mix_stale_fallbacks();
  result.mix_biased_selects = session.mix_biased_selects();
  result.control = env.membership().control_stats();
  return result;
}

DurabilityAverages run_durability_average(const DurabilityConfig& config,
                                          std::size_t seeds,
                                          std::size_t threads) {
  std::vector<DurabilityResult> results(seeds);
  parallel_for(seeds, threads, [&](std::size_t i) {
    DurabilityConfig run = config;
    run.environment.seed = config.environment.seed + i;
    results[i] = run_durability_experiment(run);
  });

  DurabilityAverages avg;
  metrics::Summary durability, attempts, latency, bandwidth, delivery;
  avg.durability_runs.reserve(results.size());
  for (const auto& r : results) {
    durability.add(r.durability_seconds);
    avg.durability_runs.push_back(r.durability_seconds);
    attempts.add(static_cast<double>(r.construct_attempts));
    if (r.latency_ms.count() > 0) latency.add(r.latency_ms.mean());
    if (r.bandwidth_bytes.count() > 0) {
      bandwidth.add(r.bandwidth_bytes.mean());
    }
    if (r.messages_sent > 0) {
      delivery.add(static_cast<double>(r.messages_delivered) /
                   static_cast<double>(r.messages_sent));
    }
  }
  avg.durability_seconds = durability.mean();
  avg.construct_attempts = attempts.mean();
  avg.latency_ms = latency.mean();
  avg.bandwidth_kb = bandwidth.mean() / 1024.0;
  avg.delivery_rate = delivery.mean();
  avg.runs = seeds;
  return avg;
}

}  // namespace p2panon::harness
