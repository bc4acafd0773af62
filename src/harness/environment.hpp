// Full-stack simulation environment: the paper's experimental setup
// (§6.1) assembled from the substrates.
//
//   1024 nodes, King-style latency matrix with 152 ms mean RTT, Pareto
//   churn with 1 h median sessions, gossip membership with liveness
//   piggybacking, PKI, onion router.
//
// An Environment owns everything a protocol experiment needs; experiments
// add initiator/responder behavior on top.
#pragma once

#include <memory>
#include <string>

#include "anon/onion.hpp"
#include "anon/router.hpp"
#include "churn/churn_model.hpp"
#include "crypto/keys.hpp"
#include "fault/faulty_transport.hpp"
#include "harness/health.hpp"
#include "membership/gossip.hpp"
#include "membership/onehop.hpp"
#include "membership/provider.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/sim_transport.hpp"
#include "obs/capacity/census.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"

namespace p2panon::harness {

/// Which dissemination substrate backs the membership layer. Gossip is the
/// default (and the seed behavior); OneHop exists to exercise the leader-
/// failover recovery path under fault plans (DESIGN §9).
enum class MembershipKind { kGossip, kOneHop };

struct EnvironmentConfig {
  std::size_t num_nodes = 1024;
  std::uint64_t seed = 1;
  SimDuration mean_rtt = from_millis(152);
  std::string session_distribution = "pareto:median=3600";
  MembershipKind membership_kind = MembershipKind::kGossip;
  membership::GossipConfig gossip;
  membership::OneHopConfig onehop;  // used when membership_kind == kOneHop
  anon::RouterConfig router;
  bool fast_crypto = true;  // FastOnionCodec for statistical runs
  std::size_t path_length = 3;  // L

  /// Optional scripted fault schedule (not owned; must outlive the
  /// Environment). When set, a FaultyTransport decorator is layered
  /// between the SimTransport and the Demux, and plan crashes are bridged
  /// into the liveness oracle. Null leaves the stack — and every RNG
  /// stream — exactly as before.
  const fault::FaultPlan* fault_plan = nullptr;
  std::uint64_t fault_seed = 0xFA017;

  /// Metrics registry shared by every component in this environment
  /// (transport, fault decorator, router, sessions). Null = the
  /// Environment owns a private registry, so parallel sweep runs never
  /// share series and per-run results stay deterministic.
  obs::Registry* metrics = nullptr;

  /// Samples the run. One sim::PeriodicTask ticks every 30 s of sim time
  /// and, in this order: closes a window of the run's HealthScoreboard
  /// (Environment::health()); exports the simulator gauges (obs_sim_*),
  /// node 0's membership cache health and control-plane counters
  /// (membership_*) and the router's overload levels (anon_overload_*)
  /// into the registry; then closes one window of `timeseries`. The tick
  /// only reads state, so a sampled run's outcome equals the unsampled
  /// run's; it costs one executed event per window.
  bool sampled = false;

  /// Optional windowed time-series recorder (not owned; must outlive the
  /// Environment). A sampled run closes one window per registry series at
  /// the end of every tick; an unsampled run never touches it.
  obs::TimeseriesRecorder* timeseries = nullptr;

  /// Optional capacity loop profiler (not owned; must outlive the
  /// Environment) attached to the simulator at construction. Passive —
  /// it only reads wall clocks around event dispatch, never schedules or
  /// draws randomness — so attaching one keeps runs byte-identical to the
  /// seed; the default (null) costs one branch per event.
  obs::capacity::LoopProfiler* loop_profiler = nullptr;

  /// Optional passive wire observer (not owned; must outlive the
  /// Environment) installed on the SimTransport underneath any fault
  /// decorator — a global observer sees the wire, not the faults' view.
  /// Null (the default) is a plain pointer pass: no RNG stream, event or
  /// registry series changes, so runs stay byte-identical to the seed.
  net::LinkTap* link_tap = nullptr;
};

class Environment {
 public:
  explicit Environment(EnvironmentConfig config);
  ~Environment();
  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  /// Arms the sampler (when sampled), then starts membership, the router
  /// and churn. Call once, then run the simulator.
  void start();

  sim::Simulator& simulator() { return simulator_; }
  churn::ChurnModel& churn() { return *churn_; }
  net::SimTransport& transport() { return *transport_; }
  /// Non-null only when a fault plan was configured.
  fault::FaultyTransport* faulty_transport() { return faulty_.get(); }
  net::Demux& demux() { return *demux_; }
  membership::MembershipProvider& membership() { return *membership_; }
  anon::AnonRouter& router() { return *router_; }
  const crypto::KeyDirectory& directory() const { return directory_; }
  const EnvironmentConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

  /// The run's metrics registry (owned unless the config injected one).
  obs::Registry& metrics() { return *metrics_; }

  /// The run's health scoreboard; null unless config.sampled. Attach the
  /// session under test before start() for stall detection, and read the
  /// summary after the run.
  HealthScoreboard* health() { return health_.get(); }

  /// Picks a currently-up node uniformly, excluding `exclude` (or
  /// kInvalidNode when none is up).
  NodeId random_up_node(NodeId exclude);

  /// Walks every big owned structure (latency matrix, membership caches,
  /// router tables, PKI, event queue) and reports container footprints
  /// into `census`. Read-only — callable mid-run without perturbing it.
  void byte_census(obs::capacity::ByteCensus& census) const;

 private:
  void sample();  // one sampler tick, see EnvironmentConfig::sampled

  EnvironmentConfig config_;
  Rng rng_;
  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Registry* metrics_ = nullptr;
  bool attached_trace_clock_ = false;
  sim::Simulator simulator_;
  std::unique_ptr<net::LatencyMatrix> latency_;
  std::unique_ptr<churn::ChurnModel> churn_;
  std::unique_ptr<net::SimTransport> transport_;
  std::unique_ptr<fault::FaultyTransport> faulty_;
  std::unique_ptr<net::Demux> demux_;
  crypto::KeyDirectory directory_;
  std::unique_ptr<membership::MembershipProvider> membership_;
  std::unique_ptr<anon::OnionCodec> onion_;
  std::unique_ptr<anon::AnonRouter> router_;

  // Sampling state. The tick reads every member above, so the sampler is
  // declared last and destroyed first.
  std::unique_ptr<HealthScoreboard> health_;
  // Last-seen merge-stat / control-stat values, so the tick can increment
  // registry counters by delta instead of overwriting.
  membership::NodeCache::MergeStats last_merge_stats_;
  membership::ControlStats last_control_stats_;
  std::unique_ptr<sim::PeriodicTask> sampler_;
};

}  // namespace p2panon::harness
