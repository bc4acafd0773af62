// Path-setup success experiment (paper Table 1 and Figure 5).
//
// Reproduces the §6.2 "Path Construction" methodology: 2 h of simulated
// churn; after a 1 h warm-up, every node schedules path-construction
// events with exponentially distributed inter-arrival times (mean 116 s,
// ~16,000 events at N = 1024). At each event the (currently-up) node
// makes ONE whole-set construction attempt per probed protocol spec
// toward a random live responder; success follows each protocol's
// condition (CurMix: the path forms; SimRep: >= 1 of k; SimEra: >= k/r of
// k). Success rates per spec come back as Ratios.
//
// All specs are probed at the same events in one simulation run, so
// protocol comparisons share identical churn/membership history.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anon/protocols.hpp"
#include "harness/environment.hpp"
#include "metrics/summary.hpp"

namespace p2panon::harness {

struct PathSetupConfig {
  EnvironmentConfig environment;
  SimDuration warmup = 1 * kHour;
  SimDuration measure = 1 * kHour;
  double event_interarrival_seconds = 116.0;
  SimDuration construct_timeout = 5 * kSecond;
  std::vector<anon::ProtocolSpec> specs;
};

struct PathSetupResult {
  std::vector<anon::ProtocolSpec> specs;
  std::vector<metrics::Ratio> success;  // parallel to specs
  std::uint64_t events = 0;
  double availability = 0.0;  // measured over the run
};

PathSetupResult run_path_setup_experiment(const PathSetupConfig& config);

}  // namespace p2panon::harness
