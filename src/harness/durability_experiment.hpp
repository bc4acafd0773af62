// Durability / performance experiment (paper Tables 2, 3, 4).
//
// §6.2 "Performance Comparison" methodology: two pinned nodes (initiator,
// responder) in a 1024-node churning network. After a 1 h warm-up the
// initiator constructs the protocol's path set (counting whole-set
// attempts), then sends a 1 KB message every 10 s for an hour. Reported
// per run:
//   - durability: ground-truth lifetime of the constructed path set,
//     terminated per protocol (CurMix: any relay fails; SimRep: all k
//     paths fail; SimEra: more than k(1 - 1/r) paths fail), capped 3600 s;
//   - construction attempts to first success;
//   - mean latency of successful deliveries (send -> responder
//     reconstruction);
//   - mean payload bandwidth per successful delivery.
//
// With environment.sampled on, the Environment's health scoreboard watches
// the session's paths and its summary and table land in the result.
#pragma once

#include <vector>

#include "anon/protocols.hpp"
#include "harness/environment.hpp"
#include "harness/health.hpp"
#include "metrics/summary.hpp"

namespace p2panon::harness {

struct DurabilityConfig {
  EnvironmentConfig environment;
  anon::ProtocolSpec spec;
  SimDuration warmup = 1 * kHour;
  SimDuration measure = 1 * kHour;
  SimDuration send_interval = 10 * kSecond;
  std::size_t message_size = 1024;
  NodeId initiator = 0;
  NodeId responder = 1;

  /// The initiator's session: the paper's fixed 5 s timeouts and a
  /// 500-attempt construction budget. Erasure parameters and mix choice
  /// come from `spec`, L from environment.path_length.
  anon::SessionConfig session{.max_construct_attempts = 500};
};

struct DurabilityResult {
  bool constructed = false;
  std::size_t construct_attempts = 0;
  double durability_seconds = 0.0;  // capped at `measure`
  metrics::Summary latency_ms;      // successful deliveries
  metrics::Summary bandwidth_bytes; // payload bytes per successful delivery
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;

  /// Populated only when config.environment.sampled.
  HealthSummary health;
  std::string health_table;  // rendered scoreboard, empty when disabled

  // --- Observational extras (read at run end; never affect the run) ---

  /// Fault-injection counters (all zero when no fault plan was set).
  fault::FaultyTransport::Counters faults;
  /// Network-wide belief accuracy at run end (fraction of (observer,
  /// subject) pairs whose alive-belief matches churn ground truth).
  double belief_accuracy = 0.0;
  /// Staleness-aware selection tallies for the initiator's session.
  std::uint64_t mix_stale_fallbacks = 0;
  std::uint64_t mix_biased_selects = 0;
  /// Control-plane recovery work done by the membership provider.
  membership::ControlStats control;
};

DurabilityResult run_durability_experiment(const DurabilityConfig& config);

/// Averages `seeds` runs (seeds environment.seed + 0, +1, ...), optionally
/// in parallel worker threads.
struct DurabilityAverages {
  double durability_seconds = 0.0;
  double construct_attempts = 0.0;
  double latency_ms = 0.0;
  double bandwidth_kb = 0.0;
  double delivery_rate = 0.0;
  std::size_t runs = 0;
  /// Per-run durabilities, for bootstrap confidence intervals (Pareto
  /// residual lifetimes make the mean heavy-tailed).
  std::vector<double> durability_runs;
};

DurabilityAverages run_durability_average(const DurabilityConfig& config,
                                          std::size_t seeds,
                                          std::size_t threads);

}  // namespace p2panon::harness
