#include "harness/environment.hpp"

#include "anon/mix_selector.hpp"
#include "churn/distributions.hpp"
#include "common/alloc_probe.hpp"
#include "obs/trace.hpp"

namespace p2panon::harness {

namespace {

// Sim-time length of one sampler window (EnvironmentConfig::sampled).
constexpr SimDuration kSampleWindow = 30 * kSecond;

std::uint64_t tracer_sim_clock(const void* ctx) {
  return static_cast<std::uint64_t>(
      static_cast<const sim::Simulator*>(ctx)->now());
}
}  // namespace

Environment::Environment(EnvironmentConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::Registry>();
    metrics_ = owned_metrics_.get();
  }
  // A traced run stamps events with this simulator's clock. Attach only
  // while tracing is on: parallel sweeps build many environments at once
  // and must not fight over the tracer's single clock slot.
  if (obs::Tracer::instance().enabled()) {
    obs::Tracer::instance().set_sim_clock(&tracer_sim_clock, &simulator_);
    attached_trace_clock_ = true;
  }
  simulator_.set_profiler(config_.loop_profiler);
  // Alloc-probe subsystem tags: in binaries that link the counting hooks
  // (scale_probe, capacity tests) each phase's heap bytes are attributed
  // to its subsystem; elsewhere MemScope collapses to two no-op calls.
  {
    alloc_probe::MemScope mem_scope("latency_matrix");
    latency_ = std::make_unique<net::LatencyMatrix>(
        net::LatencyMatrix::synthetic(config_.num_nodes, rng_.fork(),
                                      config_.mean_rtt));
  }

  {
    alloc_probe::MemScope mem_scope("churn");
    const auto session_dist =
        churn::parse_distribution(config_.session_distribution);
    churn_ = std::make_unique<churn::ChurnModel>(
        simulator_, config_.num_nodes, *session_dist, rng_.fork());
  }
  alloc_probe::MemScope transport_scope("transport");

  // The liveness oracle folds in plan-scripted crashes so that a crashed
  // node also refuses deliveries that are already in flight (same failure
  // mode as churn). With no plan this is exactly the churn oracle.
  transport_ = std::make_unique<net::SimTransport>(
      simulator_, *latency_,
      [this](NodeId node) {
        if (!churn_->is_up(node)) return false;
        return !(config_.fault_plan &&
                 config_.fault_plan->is_crashed(node, simulator_.now()));
      },
      /*per_hop_overhead=*/0, net::LinkFaultConfig{}, metrics_);
  transport_->set_tap(config_.link_tap);

  if (config_.fault_plan != nullptr) {
    faulty_ = std::make_unique<fault::FaultyTransport>(
        *transport_, *config_.fault_plan, config_.fault_seed, &simulator_,
        metrics_);
  }
  net::Transport& wire = faulty_ ? static_cast<net::Transport&>(*faulty_)
                                 : static_cast<net::Transport&>(*transport_);
  demux_ = std::make_unique<net::Demux>(wire, config_.num_nodes);

  alloc_probe::MemScope pki_scope("pki");
  Rng key_rng = rng_.fork();
  auto node_keys = directory_.provision(config_.num_nodes, key_rng);
  alloc_probe::MemScope membership_scope("membership");

  // Either provider consumes exactly one fork here, so switching kinds
  // leaves every downstream RNG stream (router) in place, and the default
  // (gossip) run stays byte-identical to the seed.
  if (config_.membership_kind == MembershipKind::kOneHop) {
    membership_ = std::make_unique<membership::OneHopMembership>(
        simulator_, *demux_, *churn_, config_.onehop, rng_.fork());
  } else {
    membership_ = std::make_unique<membership::GossipMembership>(
        simulator_, *demux_, *churn_, config_.gossip, rng_.fork());
  }

  alloc_probe::MemScope router_scope("router");
  if (config_.fast_crypto) {
    onion_ = std::make_unique<anon::FastOnionCodec>();
  } else {
    onion_ = std::make_unique<anon::RealOnionCodec>();
  }
  anon::RouterConfig router_config = config_.router;
  if (router_config.metrics == nullptr) router_config.metrics = metrics_;
  router_ = std::make_unique<anon::AnonRouter>(
      simulator_, *demux_, *onion_, directory_, std::move(node_keys),
      [this](NodeId node) { return churn_->is_up(node); }, router_config,
      rng_.fork());

  if (config_.sampled) {
    health_ = std::make_unique<HealthScoreboard>(simulator_, *churn_,
                                                 *membership_, *metrics_);
  }
}

Environment::~Environment() {
  if (attached_trace_clock_) {
    obs::Tracer::instance().set_sim_clock(nullptr, nullptr);
  }
}

void Environment::start() {
  // Armed first, so each tick runs ahead of the router's expiry sweep that
  // fires on the same instants.
  if (config_.sampled) {
    static const auto kSamplerEvent = obs::capacity::event_type("obs.sampler");
    sampler_ = std::make_unique<sim::PeriodicTask>(
        simulator_, kSampleWindow, [this] { sample(); }, kSamplerEvent);
    sampler_->start();
  }
  membership_->start();  // subscribes to churn before transitions begin
  router_->start();
  churn_->start();
}

void Environment::sample() {
  const SimTime now = simulator_.now();
  health_->sample();

  obs::Registry& reg = *metrics_;
  reg.gauge("obs_sim_pending_events")
      ->set(static_cast<std::int64_t>(simulator_.pending_events()));
  reg.gauge("obs_sim_executed_events")
      ->set(static_cast<std::int64_t>(simulator_.executed_events()));
  reg.gauge("obs_sim_scheduled_events")
      ->set(static_cast<std::int64_t>(simulator_.scheduled_total()));

  // Membership health as node 0 — every harness's pinned initiator — sees
  // it, stale past the staleness-aware selection threshold. Merge and
  // control-plane counters advance by delta.
  const membership::NodeCache& cache = membership_->cache(0);
  const auto ages = cache.age_stats(now, anon::StalenessPolicy{}.stale_after);
  reg.gauge("membership_record_age_p50_ms")
      ->set(static_cast<std::int64_t>(to_millis(ages.age_p50)));
  reg.gauge("membership_record_age_p95_ms")
      ->set(static_cast<std::int64_t>(to_millis(ages.age_p95)));
  reg.gauge("membership_stale_fraction_bp")
      ->set(static_cast<std::int64_t>(ages.stale_fraction * 10000.0));
  reg.gauge("membership_cache_known")
      ->set(static_cast<std::int64_t>(ages.alive_known));
  const auto merges = cache.merge_stats();
  const auto updates = [&reg](const char* rule) {
    return reg.counter("membership_cache_updates_total", {{"rule", rule}});
  };
  updates("direct")->inc(merges.updates_direct -
                         last_merge_stats_.updates_direct);
  updates("indirect")->inc(merges.updates_indirect -
                           last_merge_stats_.updates_indirect);
  updates("rejected")->inc(merges.merges_rejected -
                           last_merge_stats_.merges_rejected);
  updates("inflated")->inc(merges.inflated_rejected -
                           last_merge_stats_.inflated_rejected);
  last_merge_stats_ = merges;
  const auto control = membership_->control_stats();
  reg.counter("membership_anti_entropy_rounds_total")
      ->inc(control.anti_entropy_rounds -
            last_control_stats_.anti_entropy_rounds);
  reg.counter("membership_repair_records_sent_total")
      ->inc(control.repair_records_sent -
            last_control_stats_.repair_records_sent);
  reg.counter("membership_repair_records_accepted_total")
      ->inc(control.repair_records_accepted -
            last_control_stats_.repair_records_accepted);
  reg.counter("membership_elections_total")
      ->inc(control.elections - last_control_stats_.elections);
  last_control_stats_ = control;

  // Router overload. Levels are exported in basis points of capacity so
  // integer gauges keep sub-percent resolution.
  const auto overload = router_->overload_stats(now);
  const double cap =
      overload.capacity > 0 ? static_cast<double>(overload.capacity) : 1.0;
  reg.gauge("anon_overload_max_level_bp")
      ->set(static_cast<std::int64_t>(overload.max_level / cap * 10000.0));
  reg.gauge("anon_overload_mean_level_bp")
      ->set(static_cast<std::int64_t>(
          overload.total_level / cap /
          static_cast<double>(config_.num_nodes) * 10000.0));
  reg.gauge("anon_overload_hot_nodes")
      ->set(static_cast<std::int64_t>(overload.hot_nodes));

  // Last, so the window sees everything this tick wrote.
  if (config_.timeseries != nullptr) config_.timeseries->sample(now);
}

void Environment::byte_census(obs::capacity::ByteCensus& census) const {
  census.add("latency_matrix", "delays", latency_->memory_bytes());
  membership_->byte_census(census);
  router_->byte_census(census);
  census.add("pki", "directory", directory_.memory_bytes());
  census.add("sim", "event_queue", simulator_.queue_memory_bytes());
}

NodeId Environment::random_up_node(NodeId exclude) {
  if (churn_->up_count() == 0) return kInvalidNode;
  for (int attempt = 0; attempt < 4096; ++attempt) {
    const NodeId candidate =
        static_cast<NodeId>(rng_.next_below(config_.num_nodes));
    if (candidate != exclude && churn_->is_up(candidate)) return candidate;
  }
  return kInvalidNode;
}

}  // namespace p2panon::harness
