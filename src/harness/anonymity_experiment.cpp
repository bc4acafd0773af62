#include "harness/anonymity_experiment.hpp"

#include <algorithm>
#include <memory>

#include "analysis/anonymity.hpp"
#include "anon/cover_traffic.hpp"

namespace p2panon::harness {

namespace {

// Cover-traffic arm: how many nodes send dummies, and how often.
constexpr std::size_t kCoverNodes = 24;
constexpr SimDuration kCoverInterval = 10 * kSecond;
// Each trial's length, and the part of it that sends.
constexpr SimDuration kTrialDuration = 40 * kSecond;
constexpr SimDuration kTrialSendWindow = 25 * kSecond;
// Timing-correlation lag window: how far back from a responder ingress
// the attacker looks for candidate origin sends. Covers a path traversal
// (L hops of mean one-way latency) with slack.
constexpr SimDuration kCorrelationLag = 5 * kSecond;

/// Rates are exported as per-mille gauges (the registry's gauges are
/// integers); 1000 = certainty, entropy in milli-bits.
std::int64_t permille(double v) {
  return static_cast<std::int64_t>(v * 1000.0 + 0.5);
}

void export_report(obs::Registry& metrics,
                   const adversary::AnonymityReport& report) {
  const std::map<std::string, std::string> label = {
      {"attack", report.attack}};
  metrics.gauge("adversary_success_permille", label)
      ->set(permille(report.success_rate));
  metrics.gauge("adversary_entropy_millibits", label)
      ->set(permille(report.posterior_entropy_bits));
  metrics.gauge("adversary_anonymity_set_permille", label)
      ->set(permille(report.anonymity_set_mean));
  metrics.gauge("adversary_trials", label)
      ->set(static_cast<std::int64_t>(report.trials));
}

}  // namespace

AnonymityResult run_anonymity_experiment(const AnonymityConfig& config) {
  static const auto kSendEvent = obs::capacity::event_type("harness.send");
  const std::size_t n = config.environment.num_nodes;

  // The capture layer is built before the Environment so the transport is
  // born tapped; its counters go to the injected registry if the caller
  // shares one (the private per-run registry does not exist yet here).
  adversary::LinkObserver observer(adversary::ObserverConfig{},
                                   config.environment.metrics);

  EnvironmentConfig env_config = config.environment;
  env_config.link_tap = &observer;
  Environment env(env_config);

  if (config.pin_all_up) {
    for (NodeId id = 0; id < n; ++id) env.churn().pin_up(id);
  }
  env.churn().pin_up(config.initiator);
  env.churn().pin_up(config.responder);

  // Patient fraction-f insiders: planted once, pinned up for the whole
  // run, endpoints protected (the adversary is trying to link them, not
  // play them).
  const adversary::CompromiseModel model = adversary::CompromiseModel::plant(
      n, config.compromised_fraction, env_config.seed * 1000003ULL + 17,
      {config.initiator, config.responder});
  for (NodeId id = 0; id < n; ++id) {
    if (model.is_compromised(id)) env.churn().pin_up(id);
  }

  AnonymityResult result;
  result.compromised_count = model.count();
  result.effective_fraction =
      n > 2 ? static_cast<double>(model.count()) / static_cast<double>(n - 2)
            : 0.0;

  anon::SessionConfig base_session = config.session;
  base_session.path_length = env_config.path_length;
  const anon::SessionConfig session_config =
      config.spec.session_config(base_session);

  membership::NodeCache& initiator_cache =
      env.membership().cache(config.initiator);

  // Optional cover plane: nodes [2, 2+kCoverNodes) send dummies sized
  // exactly like the real messages, over the same channel — the wire
  // cannot tell them apart, which is the whole point.
  std::unique_ptr<anon::CoverTrafficGenerator> cover;
  if (config.cover_traffic) {
    std::vector<NodeId> cover_set;
    for (NodeId id = 2; id < n && cover_set.size() < kCoverNodes; ++id) {
      cover_set.push_back(id);
    }
    anon::CoverTrafficConfig cover_config;
    cover_config.interval = kCoverInterval;
    cover_config.k = 1;
    cover_config.message_size = config.message_size;
    cover_config.path_length = env_config.path_length;
    cover = std::make_unique<anon::CoverTrafficGenerator>(
        env.router(),
        [&env](NodeId node) -> const membership::NodeCache& {
          return env.membership().cache(node);
        },
        [&env](NodeId node) { return env.churn().is_up(node); },
        std::move(cover_set), cover_config, env.rng().fork(), &env.metrics());
    env.simulator().schedule_at(
        config.warmup, [&cover] { cover->start(); },
        obs::capacity::event_type("harness.send"));
  }

  // Sequential trials: one short-lived session each, with its window and
  // ground-truth first relays recorded for scoring.
  std::unique_ptr<anon::Session> current;
  std::uint64_t generation = 0;
  std::vector<adversary::TrialWindow> windows;
  std::size_t ground_truth_hits = 0;
  const Bytes payload(config.message_size, 0xa9);

  std::function<void(std::uint64_t, SimTime)> send_loop;
  send_loop = [&](std::uint64_t gen, SimTime window_end) {
    if (gen != generation || current == nullptr) return;
    if (env.simulator().now() > window_end) return;
    if (current->send_message(payload) != 0) ++result.messages_sent;
    env.simulator().schedule_after(
        config.send_interval,
        [&send_loop, gen, window_end] { send_loop(gen, window_end); },
        kSendEvent);
  };

  for (std::size_t i = 0; i < config.trials; ++i) {
    const SimTime t0 = config.warmup + i * kTrialDuration;
    env.simulator().schedule_at(t0, [&, t0] {
      ++result.trials_attempted;
      ++generation;
      const std::uint64_t gen = generation;
      current = std::make_unique<anon::Session>(
          env.router(), initiator_cache, config.initiator, config.responder,
          session_config, env.rng().fork());
      current->construct([&, gen, t0](bool ok, std::size_t) {
        if (!ok || gen != generation) return;
        ++result.trials_constructed;
        bool compromised_first_relay = false;
        for (const auto& path : current->paths()) {
          if (path.state == anon::PathState::kEstablished &&
              !path.relays.empty() &&
              model.is_compromised(path.relays.front())) {
            compromised_first_relay = true;
          }
        }
        if (compromised_first_relay) ++ground_truth_hits;
        // End one microsecond short of the next trial's start: window
        // bounds are inclusive and the next construct onion leaves at
        // exactly t0 + kTrialDuration.
        windows.push_back(
            {static_cast<std::uint64_t>(t0),
             static_cast<std::uint64_t>(t0 + kTrialDuration) - 1});
        send_loop(gen, t0 + kTrialSendWindow);
      });
      // Tear down well before the next trial starts, so windows do not
      // bleed into each other on the wire.
      env.simulator().schedule_at(t0 + kTrialDuration - 2 * kSecond,
                                  [&, gen] {
                                    if (gen == generation &&
                                        current != nullptr) {
                                      current->teardown();
                                    }
                                  });
    });
  }

  env.start();
  env.simulator().run_until(config.warmup + config.trials * kTrialDuration +
                            30 * kSecond);
  if (current != nullptr) current->teardown();

  result.ground_truth_compromise_rate =
      result.trials_constructed == 0
          ? 0.0
          : static_cast<double>(ground_truth_hits) /
                static_cast<double>(result.trials_constructed);
  if (cover != nullptr) result.cover_messages = cover->cover_messages_sent();
  if (!config.flow_log_path.empty()) {
    observer.log().write_jsonl(config.flow_log_path);
  }
  result.flows_recorded = observer.log().appended();
  result.flows_evicted = observer.log().evicted();
  result.flows_sampled_out = observer.sampled_out();

  // Offline attack pass over the captured log.
  adversary::AttackScenario scenario;
  scenario.log = &observer.log();
  scenario.initiator = config.initiator;
  scenario.responder = config.responder;
  scenario.num_nodes = n;
  result.predecessor = adversary::predecessor_attack(scenario, model, windows);
  result.intersection = adversary::intersection_attack(scenario, windows);
  result.correlation = adversary::correlation_attack(
      scenario, windows,
      static_cast<std::uint64_t>(kCorrelationLag));

  // Closed-form comparators at the *planted* fraction, so integer
  // rounding of f*N never skews the gate.
  const double f = result.effective_fraction;
  const std::size_t L = env_config.path_length;
  const std::size_t honest = analysis::honest_anonymity_set(n, f);
  result.eq4_identification =
      analysis::initiator_identification_probability(n, f, L);
  result.multipath_exposure =
      analysis::multipath_first_relay_exposure(f, config.spec.k);
  result.honest_set_size = static_cast<double>(honest);
  result.uniform_entropy = analysis::uniform_entropy_bits(honest);

  result.predecessor.baseline_success = result.eq4_identification;
  result.predecessor.baseline_entropy_bits = result.uniform_entropy;
  const double ideal =
      honest == 0 ? 0.0 : 1.0 / static_cast<double>(honest);
  result.intersection.baseline_success = ideal;
  result.intersection.baseline_entropy_bits = result.uniform_entropy;
  result.correlation.baseline_success = ideal;
  result.correlation.baseline_entropy_bits = result.uniform_entropy;

  // Surface through the run's registry so timeseries/export see them.
  export_report(env.metrics(), result.predecessor);
  export_report(env.metrics(), result.intersection);
  export_report(env.metrics(), result.correlation);
  env.metrics()
      .gauge("adversary_compromised_nodes")
      ->set(static_cast<std::int64_t>(model.count()));
  env.metrics()
      .gauge("adversary_flows_recorded")
      ->set(static_cast<std::int64_t>(result.flows_recorded));

  return result;
}

}  // namespace p2panon::harness
