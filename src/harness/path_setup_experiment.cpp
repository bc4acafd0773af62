#include "harness/path_setup_experiment.hpp"

#include <deque>

#include "anon/session.hpp"
#include "common/logging.hpp"

namespace p2panon::harness {

namespace {

/// Cap on concurrently outstanding probe sessions (memory guard).
constexpr std::size_t kMaxOutstanding = 200000;

/// One construction probe: a throwaway session making a single whole-set
/// attempt. Self-deletes after reporting.
class Probe {
 public:
  Probe(Environment& env, const anon::ProtocolSpec& spec,
        anon::SessionConfig session_config, NodeId initiator,
        NodeId responder, metrics::Ratio& ratio, std::size_t& outstanding)
      : ratio_(ratio), outstanding_(outstanding) {
    ++outstanding_;
    session_ = std::make_unique<anon::Session>(
        env.router(), env.membership().cache(initiator), initiator,
        responder, spec.session_config(session_config), env.rng().fork());
    session_->construct([this, &env](bool ok, std::size_t) {
      ratio_.record(ok);
      if (ok) session_->teardown();
      // Defer deletion: we are inside the session's own callback.
      env.simulator().schedule_after(
          0, [this] { delete this; },
          obs::capacity::event_type("harness.setup"));
    });
  }

  ~Probe() { --outstanding_; }

 private:
  metrics::Ratio& ratio_;
  std::size_t& outstanding_;
  std::unique_ptr<anon::Session> session_;
};

}  // namespace

PathSetupResult run_path_setup_experiment(const PathSetupConfig& config) {
  Environment env(config.environment);

  PathSetupResult result;
  result.specs = config.specs;
  result.success.resize(config.specs.size());

  anon::SessionConfig base_session;
  base_session.path_length = config.environment.path_length;
  base_session.construct_timeout = config.construct_timeout;
  base_session.max_construct_attempts = 1;  // one whole-set attempt per event

  std::size_t outstanding = 0;
  const SimTime measure_start = config.warmup;
  const SimTime measure_end = config.warmup + config.measure;

  // Each node independently fires construction events with exponential
  // inter-arrival; events at down nodes are skipped (a down node cannot
  // initiate).
  std::function<void(NodeId)> schedule_next = [&](NodeId node) {
    const SimDuration gap =
        from_seconds(env.rng().exponential(config.event_interarrival_seconds));
    static const auto kSetupEvent =
        obs::capacity::event_type("harness.setup");
    env.simulator().schedule_after(gap, [&, node] {
      const SimTime now = env.simulator().now();
      if (now <= measure_end) schedule_next(node);
      if (now < measure_start || now > measure_end) return;
      if (!env.churn().is_up(node)) return;
      const NodeId responder = env.random_up_node(node);
      if (responder == kInvalidNode) return;
      ++result.events;
      if (outstanding >= kMaxOutstanding) return;
      for (std::size_t s = 0; s < config.specs.size(); ++s) {
        new Probe(env, config.specs[s], base_session, node, responder,
                  result.success[s], outstanding);
      }
    }, kSetupEvent);
  };

  env.start();
  for (NodeId node = 0; node < config.environment.num_nodes; ++node) {
    schedule_next(node);
  }

  env.simulator().run_until(measure_end + 30 * kSecond);
  result.availability = env.churn().measured_availability(env.simulator().now());
  return result;
}

}  // namespace p2panon::harness
