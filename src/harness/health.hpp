// Rolling health scoreboard for experiment runs.
//
// The chaos and durability harnesses report end-of-run totals; this layer
// watches the run *while it happens*, one window per tick of the
// Environment's sampler (30 s of sim time):
//
//   churn storms     windows whose churn transition count reaches
//                    max(8, N/8) — correlated failure bursts, the regime the
//                    paper's durability ordering is claimed for
//   stalled paths    session paths that are nominally kEstablished but have
//                    matched no acks for 3 consecutive windows despite
//                    traffic being sent on them — the silent failure mode
//                    §4.5's failure detection exists to catch
//   drop causes      per-cause transport drop rates (net_drops_total{cause})
//                    per window, with the worst window retained
//
// Each window also publishes `health_*` gauges into the run's registry, so
// the time series the same tick closes afterwards captures the full health
// trajectory, not just the summary.
//
// The Environment builds a scoreboard only for sampled runs
// (EnvironmentConfig::sampled) and exposes it as Environment::health().
// Sampling only reads simulator/churn/membership/session/registry state —
// never the RNG — so a scoreboard cannot change the simulated outcome.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "anon/session.hpp"
#include "churn/churn_model.hpp"
#include "membership/provider.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace p2panon::harness {

struct HealthSummary {
  std::size_t windows = 0;
  std::size_t churn_storm_windows = 0;
  /// Path-windows spent stalled (each stalled path counts each window).
  std::size_t stalled_path_windows = 0;
  std::uint64_t max_transitions_per_window = 0;
  std::uint64_t total_window_drops = 0;
  double max_drop_rate_per_s = 0.0;  // worst single-cause window rate

  // Corruption attribution (corruption-resilience extension; all zero when
  // no segment carries an auth trailer).
  std::size_t corruption_windows = 0;      // windows with corruption evidence
  std::size_t max_corruption_streak = 0;   // longest consecutive run of them
  std::uint64_t max_rejections_per_window = 0;
  std::uint64_t total_auth_rejections = 0;  // responder-side tag failures
  std::uint64_t total_corrupt_nacks = 0;    // initiator-side verdicts

  // Membership-plane fault attribution (control-plane resilience, DESIGN
  // §9; all zero without a membership fault plan). Windows are scored by
  // the fault layer's injection counters (gossip_blackout / gossip_loss /
  // stale_injected / claim_inflated), and leader churn is read from the
  // provider's control_stats().elections — the recovery signal a
  // leader-crash scenario should light up.
  std::size_t membership_fault_windows = 0;
  std::uint64_t total_membership_faults = 0;
  std::uint64_t max_membership_faults_per_window = 0;
  std::uint64_t elections_observed = 0;
};

class HealthScoreboard {
 public:
  /// All references must outlive the scoreboard. `registry` receives the
  /// health_* gauges; pass the run's own registry so the gauges land next
  /// to the counters they summarize.
  HealthScoreboard(sim::Simulator& simulator, churn::ChurnModel& churn,
                   const membership::MembershipProvider& membership,
                   obs::Registry& registry);

  /// Enables per-path stall detection (optional; the session must stay
  /// alive while sample() runs).
  void attach_session(const anon::Session& session);

  /// Closes the window ending at simulator.now().
  void sample();

  const HealthSummary& summary() const { return summary_; }

  /// Attribution verdict for the run so far: "clean" (no corruption
  /// evidence in any window), "transient" (evidence, but never 3 windows
  /// in a row), or "sustained".
  const char* corruption_verdict() const;

  /// Per-cause drop totals/worst rates plus the storm/stall counts as a
  /// rendered text table for experiment output.
  std::string table() const;

 private:
  struct CauseStats {
    std::uint64_t prev = 0;
    std::uint64_t window_total = 0;
    double max_rate_per_s = 0.0;
  };
  struct PathWatch {
    std::uint64_t prev_sends = 0;
    std::uint64_t prev_acks = 0;
    std::size_t zero_ack_windows = 0;
  };

  sim::Simulator& simulator_;
  churn::ChurnModel& churn_;
  const membership::MembershipProvider& membership_;
  obs::Registry& registry_;
  const std::uint64_t storm_transitions_;
  const anon::Session* session_ = nullptr;

  HealthSummary summary_;
  std::uint64_t prev_transitions_ = 0;
  std::uint64_t prev_auth_rejections_ = 0;
  std::uint64_t prev_corrupt_nacks_ = 0;
  std::uint64_t prev_elections_ = 0;
  std::size_t corruption_streak_ = 0;
  SimTime last_sample_us_ = 0;
  std::vector<PathWatch> path_watch_;
  std::vector<CauseStats> cause_stats_;
  std::vector<CauseStats> membership_stats_;
};

}  // namespace p2panon::harness
