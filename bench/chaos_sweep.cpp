// Chaos sweep: delivered fraction under every scripted fault scenario,
// fixed 5 s timeouts (the paper's configuration) vs the adaptive
// RTO/backoff mode, averaged over seeds.
//
// A pinned SimEra(4,2) pair exchanges a 512 B message every 5 s through a
// 96-node network while the scenario's FaultPlan runs (see
// harness/chaos_experiment.hpp). Reported per scenario x mode:
//   * attempted delivery — delivered / send_message calls. Charges a mode
//     for refusing sends while its paths are down, so stalling cannot
//     hide behind a shrunken denominator;
//   * accepted delivery  — delivered / accepted (nonzero message id);
//   * retx               — adaptive-mode segment retransmissions;
//   * violations         — unaccounted messages + residual state leaks +
//     open segment ledgers across all runs (the chaos invariants; must
//     be 0).
//
// With --trace <path> the sweep is skipped and ONE run of --trace-scenario
// executes with the span tracer on, writing Chrome trace-event JSON (opens
// in Perfetto / chrome://tracing; feed it to tools/trace_analyze for the
// offline causal report) and, with --jsonl, a sampled causal log. The
// traced run is sampled: every 30 s of sim time one tick closes a health
// scoreboard window and exports the simulator, membership and overload
// gauges into the run's registry (--json snapshots it). --timeseries <csv>
// also writes one window per registry series per tick, and --health prints
// the scoreboard (churn storms, per-cause drop peaks, stalled paths) and
// adds its summary to --json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/strings.hpp"
#include "harness/anonymity_experiment.hpp"
#include "harness/chaos_experiment.hpp"
#include "harness/membership_chaos.hpp"
#include "harness/parallel.hpp"
#include "metrics/table.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

using namespace p2panon;
using namespace p2panon::harness;

namespace {

ChaosConfig sweep_config(ChaosScenario scenario, std::uint64_t seed,
                         bool adaptive, std::size_t nodes) {
  ChaosConfig config;
  config.environment.num_nodes = nodes;
  config.environment.seed = seed;
  config.scenario = scenario;
  config.warmup = 5 * kMinute;
  config.measure = scenario == ChaosScenario::kCorruptedRelayQuorum
                       ? 15 * kMinute   // byzantine construction is slow
                       : 10 * kMinute;
  config.send_interval = 5 * kSecond;
  if (adaptive) {
    config.session.adaptive_timeouts = true;
    config.session.max_segment_retries = 6;
  }
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom);
  return config;
}

// --- byzantine sweep -------------------------------------------------------
//
// --byzantine-sweep replaces the scenario sweep with an integrity study:
// the corrupted-relay-quorum scenario is rerun across per-datagram flip
// probabilities, protocols, and three defense arms:
//
//   off             seed behavior — FastOnionCodec passes byte flips
//                   through, so corrupted reconstructions can DELIVER
//                   WRONG BYTES (the failure mode the tentpole removes);
//   tags            segment auth (per-segment tags, digest-validated
//                   decode, nack escalation) — every delivery is
//                   tag/digest-checked, so a run either delivers the exact
//                   bytes or fails *closed*;
//   tags+suspicion  additionally files corruption/stall evidence into the
//                   node cache and biases mix choice away from suspects,
//                   so rebuilt paths route around the byzantine quorum.
struct ByzArm {
  const char* name;
  bool tags;       // segment_auth
  bool suspicion;  // relay_suspicion + suspicion-biased mix choice
};

constexpr double kByzProbs[] = {0.10, 0.25, 0.50};
constexpr ByzArm kByzArms[] = {{"off", false, false},
                               {"tags", true, false},
                               {"tags+suspicion", true, true}};
constexpr const char* kByzProtoNames[] = {"curmix", "simrep(2)",
                                          "simera(4,2)"};

anon::ProtocolSpec byz_spec(std::size_t proto, anon::MixChoice mix) {
  switch (proto) {
    case 0: return anon::ProtocolSpec::curmix(mix);
    case 1: return anon::ProtocolSpec::simrep(2, mix);
    default: return anon::ProtocolSpec::simera(4, 2, mix);
  }
}

int run_byzantine_sweep(std::uint64_t seed, std::size_t seeds,
                        std::size_t nodes, std::size_t workers,
                        const std::string& json_path) {
  const auto runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(seeds) * bench_scale()));
  constexpr std::size_t kProbCount = sizeof(kByzProbs) / sizeof(kByzProbs[0]);
  constexpr std::size_t kArmCount = sizeof(kByzArms) / sizeof(kByzArms[0]);
  constexpr std::size_t kProtoCount = 3;

  struct Job {
    std::size_t prob;
    std::size_t proto;
    std::size_t arm;
    std::size_t run;
  };
  std::vector<Job> jobs;
  for (std::size_t p = 0; p < kProbCount; ++p) {
    for (std::size_t proto = 0; proto < kProtoCount; ++proto) {
      for (std::size_t arm = 0; arm < kArmCount; ++arm) {
        for (std::size_t run = 0; run < runs; ++run) {
          jobs.push_back({p, proto, arm, run});
        }
      }
    }
  }

  std::printf("# Byzantine sweep: corrupted-relay-quorum, %zu nodes, "
              "512 B every 5 s, %zu seeds per cell\n",
              nodes, runs);

  std::vector<ChaosResult> results(jobs.size());
  parallel_for(jobs.size(), workers, [&](std::size_t i) {
    const Job& job = jobs[i];
    const ByzArm& arm = kByzArms[job.arm];
    const anon::MixChoice mix =
        arm.suspicion ? anon::MixChoice::kBiased : anon::MixChoice::kRandom;
    ChaosConfig config =
        sweep_config(ChaosScenario::kCorruptedRelayQuorum, seed + job.run,
                     /*adaptive=*/false, nodes);
    config.spec = byz_spec(job.proto, mix);
    config.byzantine_probability = kByzProbs[job.prob];
    config.session.segment_auth = arm.tags;
    config.session.relay_suspicion = arm.suspicion;
    results[i] = run_chaos_experiment(config);
  });

  struct Cell {
    std::uint64_t accepted = 0;
    std::uint64_t correct = 0;
    std::uint64_t wrong = 0;
    std::uint64_t auth_rejected = 0;
    std::uint64_t nacks = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t violations = 0;
  };
  Cell cells[kProbCount][kProtoCount][kArmCount];
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const ChaosResult& result = results[i];
    Cell& cell = cells[job.prob][job.proto][job.arm];
    cell.accepted += result.messages_accepted;
    cell.correct += result.messages_delivered_correct;
    cell.wrong += result.messages_delivered_wrong;
    cell.auth_rejected += result.auth_rejected;
    cell.nacks += result.auth_nacks;
    cell.quarantined += result.quarantined_nodes;
    cell.violations += result.violations();
  }

  metrics::Table table({"p_corrupt", "protocol", "arm", "accepted", "correct",
                        "wrong", "failed_closed", "correct_rate",
                        "wrong_rate", "auth_rejected", "corrupt_nacks",
                        "quarantined", "violations"});
  for (std::size_t p = 0; p < kProbCount; ++p) {
    for (std::size_t proto = 0; proto < kProtoCount; ++proto) {
      for (std::size_t arm = 0; arm < kArmCount; ++arm) {
        const Cell& cell = cells[p][proto][arm];
        const std::uint64_t closed =
            cell.accepted - cell.correct - cell.wrong;
        const double denom =
            cell.accepted > 0 ? static_cast<double>(cell.accepted) : 1.0;
        table.add_row({format_double(kByzProbs[p], 2),
                       kByzProtoNames[proto], kByzArms[arm].name,
                       std::to_string(cell.accepted),
                       std::to_string(cell.correct),
                       std::to_string(cell.wrong), std::to_string(closed),
                       format_double(static_cast<double>(cell.correct) /
                                         denom, 4),
                       format_double(static_cast<double>(cell.wrong) / denom,
                                     4),
                       std::to_string(cell.auth_rejected),
                       std::to_string(cell.nacks),
                       std::to_string(cell.quarantined),
                       std::to_string(cell.violations)});
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Reading: with the auth arms on, `wrong` must be 0 in every "
              "cell — a corrupted reconstruction is rejected at the "
              "responder (tag check) or by the digest-validated decode, so "
              "the message fails closed instead of delivering fabricated "
              "bytes. The seed arm shows the baseline hazard: FastOnionCodec "
              "has no integrity, so flips survive to the application. The "
              "suspicion arm routes rebuilds around quarantined relays, "
              "recovering deliveries the tags-only arm loses to the "
              "byzantine quorum.\n");

  obs::BenchReport report("chaos_byzantine_sweep");
  report.add("runs_per_cell", static_cast<std::uint64_t>(runs));
  report.add("nodes", static_cast<std::uint64_t>(nodes));
  report.add_section("byzantine", table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}

// --- membership sweep ------------------------------------------------------
//
// --membership-sweep drives the *control plane* fault scenarios
// (harness/membership_chaos.hpp) through the durability harness: gossip
// blackout, leader crash, stale injection, and claim inflation, each under
// three arms — random mix choice (the liveness-ignorant floor), biased
// (Eq. 3 over the faulted membership), and resilient (biased + staleness-
// aware selection + anti-entropy repair + bounded trust + failover).
//
// Two committed gates ride on the JSON (scripts/check_bench_membership.py):
//   1. under gossip blackout, the resilient arm's mean durability must not
//      fall below the random arm's (staleness-aware bias >= the floor);
//   2. the control fingerprint: with every membership-resilience knob at
//      its default, a fixed chaos run must still produce the pre-PR
//      fingerprint below, byte for byte.

/// ChaosResult::fingerprint() of tiny_chaos(3) — 64 nodes, seed 3,
/// mild-loss-drizzle, warmup 5 min, measure 6 min, 1 KB every 10 s,
/// SimEra(4,2)/random — captured before the membership-resilience features
/// landed. The control section reruns that exact config and must reproduce
/// this string while every new knob sits at its default.
constexpr const char* kPrePrFingerprint =
    "1:35:19:17:4:13:0:26:20:1:5:6:60:0:0:0:0:0:0:0:171:0:0:0:0:173:0:0:0:"
    "12:45782:4:0:0:0:0:0:0";

ChaosConfig control_chaos_config() {
  ChaosConfig config;
  config.environment.num_nodes = 64;
  config.environment.seed = 3;
  config.scenario = ChaosScenario::kMildLossDrizzle;
  config.warmup = 5 * kMinute;
  config.measure = 6 * kMinute;
  config.send_interval = 10 * kSecond;
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom);
  return config;
}

/// Off-means-off guard shared by the membership, overload and anonymity
/// sweeps: runs the control config with factory defaults, then `spelled`
/// (the control config with the sweep's knobs written out at their
/// defaults). Prints the verdict, records both fingerprints in `report`,
/// and returns whether both reproduce kPrePrFingerprint.
bool check_control_fingerprint(obs::BenchReport& report,
                               const ChaosConfig& spelled) {
  const ChaosResult control_default =
      run_chaos_experiment(control_chaos_config());
  const ChaosResult control_spelled = run_chaos_experiment(spelled);
  const bool fingerprint_ok =
      control_default.fingerprint() == kPrePrFingerprint &&
      control_spelled.fingerprint() == kPrePrFingerprint;
  std::printf("control fingerprint: %s\n",
              fingerprint_ok ? "MATCHES pre-PR baseline"
                             : "MISMATCH vs pre-PR baseline");
  if (!fingerprint_ok) {
    std::printf("  pre-PR:  %s\n  default: %s\n  spelled: %s\n",
                kPrePrFingerprint, control_default.fingerprint().c_str(),
                control_spelled.fingerprint().c_str());
  }
  report.add_text("pre_pr_fingerprint", kPrePrFingerprint);
  report.add_text("control_fingerprint", control_default.fingerprint());
  report.add_text("control_fingerprint_spelled",
                  control_spelled.fingerprint());
  report.add("fingerprint_match",
             static_cast<std::uint64_t>(fingerprint_ok ? 1 : 0));
  return fingerprint_ok;
}

int run_membership_sweep(std::uint64_t seed, std::size_t seeds,
                         std::size_t workers, const std::string& json_path) {
  const auto runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(seeds) * bench_scale()));
  constexpr MembershipScenario kMemScenarios[] = {
      MembershipScenario::kGossipBlackout, MembershipScenario::kLeaderCrash,
      MembershipScenario::kStaleInject, MembershipScenario::kClaimInflate};
  constexpr MembershipArm kArms[] = {MembershipArm::kRandom,
                                     MembershipArm::kBiased,
                                     MembershipArm::kResilient};
  constexpr std::size_t kScenarioCount =
      sizeof(kMemScenarios) / sizeof(kMemScenarios[0]);
  constexpr std::size_t kArmCount = sizeof(kArms) / sizeof(kArms[0]);

  struct Job {
    std::size_t scenario;
    std::size_t arm;
    std::size_t run;
  };
  std::vector<Job> jobs;
  for (std::size_t s = 0; s < kScenarioCount; ++s) {
    for (std::size_t a = 0; a < kArmCount; ++a) {
      for (std::size_t r = 0; r < runs; ++r) jobs.push_back({s, a, r});
    }
  }

  std::printf("# Membership sweep: control-plane faults x recovery arms, "
              "64 nodes, SimEra(4,2), %zu seeds per cell\n",
              runs);

  std::vector<DurabilityResult> results(jobs.size());
  parallel_for(jobs.size(), workers, [&](std::size_t i) {
    const Job& job = jobs[i];
    MembershipChaosConfig config;
    config.scenario = kMemScenarios[job.scenario];
    config.arm = kArms[job.arm];
    config.seed = seed + job.run;
    results[i] = run_membership_chaos(config);
  });

  struct Cell {
    double durability = 0.0;
    double attempts = 0.0;
    double belief = 0.0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t stale_fallbacks = 0;
    std::uint64_t biased_selects = 0;
    std::uint64_t repair_accepted = 0;
    std::uint64_t elections = 0;
    fault::FaultyTransport::Counters faults;
  };
  std::vector<Cell> cells(kScenarioCount * kArmCount);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const DurabilityResult& r = results[i];
    Cell& cell = cells[job.scenario * kArmCount + job.arm];
    cell.durability += r.durability_seconds;
    cell.attempts += static_cast<double>(r.construct_attempts);
    cell.belief += r.belief_accuracy;
    cell.sent += r.messages_sent;
    cell.delivered += r.messages_delivered;
    cell.stale_fallbacks += r.mix_stale_fallbacks;
    cell.biased_selects += r.mix_biased_selects;
    cell.repair_accepted += r.control.repair_records_accepted;
    cell.elections += r.control.elections;
    cell.faults.dropped_gossip_blackout += r.faults.dropped_gossip_blackout;
    cell.faults.dropped_gossip_loss += r.faults.dropped_gossip_loss;
    cell.faults.stale_injected += r.faults.stale_injected;
    cell.faults.claims_inflated += r.faults.claims_inflated;
    cell.faults.dropped_crash += r.faults.dropped_crash;
  }

  const double denom = static_cast<double>(runs);
  metrics::Table table({"scenario", "arm", "durability_s", "attempts",
                        "delivery", "belief", "stale_fallbacks",
                        "repair_accepted", "elections"});
  metrics::Table drop_table({"scenario", "arm", "gossip-blackout",
                             "gossip-loss", "stale-inject", "claim-inflate",
                             "crash-drop"});
  obs::BenchReport report("chaos_membership_sweep");
  for (std::size_t s = 0; s < kScenarioCount; ++s) {
    for (std::size_t a = 0; a < kArmCount; ++a) {
      const Cell& cell = cells[s * kArmCount + a];
      const char* scenario = membership_scenario_name(kMemScenarios[s]);
      const char* arm = membership_arm_name(kArms[a]);
      const double durability = cell.durability / denom;
      table.add_row(
          {scenario, arm, format_double(durability, 1),
           format_double(cell.attempts / denom, 1),
           format_double(cell.sent > 0
                             ? 100.0 * static_cast<double>(cell.delivered) /
                                   static_cast<double>(cell.sent)
                             : 0.0,
                         1) +
               "%",
           format_double(100.0 * cell.belief / denom, 1) + "%",
           std::to_string(cell.stale_fallbacks) + "/" +
               std::to_string(cell.biased_selects),
           std::to_string(cell.repair_accepted),
           std::to_string(cell.elections)});
      drop_table.add_row(
          {scenario, arm,
           std::to_string(cell.faults.dropped_gossip_blackout),
           std::to_string(cell.faults.dropped_gossip_loss),
           std::to_string(cell.faults.stale_injected),
           std::to_string(cell.faults.claims_inflated),
           std::to_string(cell.faults.dropped_crash)});
      report.add(std::string("durability_") + scenario + "_" + arm,
                 durability);
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("# Membership-plane injections (summed over seeds)\n%s\n",
              drop_table.render().c_str());
  std::printf("Reading: under gossip blackout the biased arms rank on "
              "fossils until repair heals the caches; the resilient arm's "
              "anti-entropy + staleness-aware degradation must keep its "
              "durability at or above the random floor (the CI gate). "
              "Under leader crash only the failover arm re-elects "
              "(elections > 0) and keeps dissemination alive; under claim "
              "inflation bounded trust caps the fake uptimes that would "
              "otherwise dominate the Eq. 3 ranking.\n");

  // Control fingerprint, with every membership knob spelled out at its
  // default: all three strings must agree or a default drifted.
  ChaosConfig spelled = control_chaos_config();
  spelled.environment.membership_kind = MembershipKind::kGossip;
  spelled.environment.gossip.resilient = false;
  report.add("runs_per_cell", static_cast<std::uint64_t>(runs));
  const bool fingerprint_ok = check_control_fingerprint(report, spelled);
  report.add_section("durability", table.to_json());
  report.add_section("membership_drops", drop_table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return fingerprint_ok ? 0 : 1;
}

// --- overload sweep --------------------------------------------------------
//
// --overload-sweep replaces the scenario sweep with a saturation study: the
// workload engine offers a bulk/interactive/streaming mix whose rate is
// shaped {steady, diurnal, flash} while every relay runs a bounded leaky-
// bucket queue, across 3 protocols x 2 arms:
//
//   shed   priority-aware load shedding (bulk before streaming before
//          interactive, control never) + admission control + reverse-path
//          backpressure + the session-side bounded send queue;
//   drop   the same bounded queue with priority-blind tail drop and no
//          admission/backpressure — what a naive bounded relay does.
//
// The committed gates (scripts/check_bench_overload.py): under the flash
// crowd the shed arm's goodput stays above a floor while the drop arm
// collapses below it, interactive p99 stays bounded, zero control-plane
// segments are ever shed, and the off-means-off control fingerprint
// reproduces byte for byte.

struct OverloadArm {
  const char* name;
  bool shed;
};

constexpr OverloadArm kOvlArms[] = {{"shed", true}, {"drop", false}};
constexpr workload::LoadShape kOvlShapes[] = {workload::LoadShape::kSteady,
                                              workload::LoadShape::kDiurnal,
                                              workload::LoadShape::kFlashCrowd};
constexpr std::size_t kOvlArmCount = sizeof(kOvlArms) / sizeof(kOvlArms[0]);
constexpr std::size_t kOvlShapeCount =
    sizeof(kOvlShapes) / sizeof(kOvlShapes[0]);
/// Short report-key slugs, shared with the anonymity sweep's protocols.
constexpr const char* kOvlProtoSlugs[] = {"curmix", "simrep2", "simera4"};

ChaosConfig overload_cell_config(std::size_t proto, workload::LoadShape shape,
                                 bool shed, std::uint64_t seed) {
  ChaosConfig config;
  config.environment.num_nodes = 64;
  config.environment.seed = seed;
  // Light background loss only: the stress under study is offered load,
  // not faults, so every shape/arm faces the same benign network.
  config.scenario = ChaosScenario::kMildLossDrizzle;
  config.warmup = 5 * kMinute;
  config.measure = 10 * kMinute;
  // Adaptive mode: retransmissions are the collapse fuel.
  config.session.adaptive_timeouts = true;
  config.session.max_segment_retries = 6;
  // At 4 msg/s the default threshold (3 consecutive timeouts) turns the
  // drizzle's ~1/3 ack-round-trip loss into perpetual rebuild churn;
  // raise it so retransmission absorbs background loss and offered load
  // stays the only stressor.
  config.session.path_fail_threshold = 40;
  config.spec = byz_spec(proto, anon::MixChoice::kRandom);
  config.workload.enabled = true;
  config.workload.shape = shape;
  // 4 msg/s (plus ~20% retransmit traffic from the drizzle) against a
  // 10/s relay drain: steady is ~0.5x load, the diurnal peak ~0.8x, and
  // the 4x flash ~2x — the overload regime the gate reasons about.
  config.workload.mean_interarrival = 250 * kMillisecond;
  config.environment.router.overload.enabled = true;
  config.environment.router.overload.relay_queue_capacity = 64;
  config.environment.router.overload.drain_rate_per_s = 10.0;
  if (shed) {
    config.environment.router.overload.shedding = true;
    config.environment.router.overload.admission_control = true;
    config.environment.router.overload.backpressure = true;
    config.session.max_inflight_segments = 256;
  }
  return config;
}

int run_overload_sweep(std::uint64_t seed, std::size_t seeds,
                       std::size_t workers, const std::string& json_path) {
  const auto runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(seeds) * bench_scale()));
  constexpr std::size_t kProtoCount = 3;

  struct Job {
    std::size_t proto;
    std::size_t shape;
    std::size_t arm;
    std::size_t run;
  };
  std::vector<Job> jobs;
  for (std::size_t p = 0; p < kProtoCount; ++p) {
    for (std::size_t s = 0; s < kOvlShapeCount; ++s) {
      for (std::size_t a = 0; a < kOvlArmCount; ++a) {
        for (std::size_t r = 0; r < runs; ++r) jobs.push_back({p, s, a, r});
      }
    }
  }

  std::printf("# Overload sweep: workload shapes x shed/drop arms, 64 "
              "nodes, mixed traffic at 4 msg/s vs 10/s relay drain, %zu "
              "seeds per cell\n",
              runs);

  std::vector<ChaosResult> results(jobs.size());
  parallel_for(jobs.size(), workers, [&](std::size_t i) {
    const Job& job = jobs[i];
    results[i] = run_chaos_experiment(
        overload_cell_config(job.proto, kOvlShapes[job.shape],
                             kOvlArms[job.arm].shed, seed + job.run));
  });

  struct Cell {
    std::uint64_t attempts = 0;
    std::uint64_t accepted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t expired = 0;
    std::uint64_t retx = 0;
    std::uint64_t deferred = 0;
    ChaosResult::ClassStats per_class[3];
    std::uint64_t inter_p99_us = 0;  // worst run's p99
    std::uint64_t sheds_bulk = 0, sheds_streaming = 0;
    std::uint64_t sheds_interactive = 0, sheds_control = 0;
    std::uint64_t admission = 0, backpressure = 0;
    std::uint64_t session_shed = 0, stalls_suppressed = 0;
    std::uint64_t violations = 0;
  };
  std::vector<Cell> cells(kProtoCount * kOvlShapeCount * kOvlArmCount);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const ChaosResult& r = results[i];
    Cell& cell = cells[(job.proto * kOvlShapeCount + job.shape) *
                           kOvlArmCount +
                       job.arm];
    cell.attempts += r.send_attempts;
    cell.accepted += r.messages_accepted;
    cell.delivered += r.messages_delivered;
    cell.expired += r.segments_expired;
    cell.retx += r.segments_retransmitted;
    cell.deferred += r.session_segments_deferred;
    for (std::size_t c = 0; c < 3; ++c) {
      cell.per_class[c].attempts += r.per_class[c].attempts;
      cell.per_class[c].accepted += r.per_class[c].accepted;
      cell.per_class[c].delivered += r.per_class[c].delivered;
    }
    cell.inter_p99_us = std::max(cell.inter_p99_us, r.interactive_p99_us);
    cell.sheds_bulk += r.relay_sheds_bulk;
    cell.sheds_streaming += r.relay_sheds_streaming;
    cell.sheds_interactive += r.relay_sheds_interactive;
    cell.sheds_control += r.relay_sheds_control;
    cell.admission += r.admission_rejects;
    cell.backpressure += r.backpressure_signals;
    cell.session_shed += r.session_messages_shed;
    cell.stalls_suppressed += r.session_stalls_suppressed;
    cell.violations += r.violations();
  }

  metrics::Table table({"protocol", "shape", "arm", "attempts", "accepted",
                        "goodput", "inter_gp", "bulk_gp", "inter_p99_ms",
                        "retx", "expired", "sheds b/s/i/c", "admission",
                        "bp", "violations"});
  obs::BenchReport report("chaos_overload_sweep");
  for (std::size_t p = 0; p < kProtoCount; ++p) {
    for (std::size_t s = 0; s < kOvlShapeCount; ++s) {
      for (std::size_t a = 0; a < kOvlArmCount; ++a) {
        const Cell& cell =
            cells[(p * kOvlShapeCount + s) * kOvlArmCount + a];
        const std::string key = std::string(kOvlProtoSlugs[p]) + "_" +
                                workload::load_shape_name(kOvlShapes[s]) +
                                "_" + kOvlArms[a].name;
        const double goodput =
            cell.attempts > 0 ? static_cast<double>(cell.delivered) /
                                    static_cast<double>(cell.attempts)
                              : 0.0;
        table.add_row(
            {kByzProtoNames[p], workload::load_shape_name(kOvlShapes[s]),
             kOvlArms[a].name, std::to_string(cell.attempts),
             std::to_string(cell.accepted),
             format_double(goodput, 3),
             format_double(cell.per_class[1].goodput(), 3),
             format_double(cell.per_class[0].goodput(), 3),
             std::to_string(cell.inter_p99_us / 1000),
             std::to_string(cell.retx), std::to_string(cell.expired),
             std::to_string(cell.sheds_bulk) + "/" +
                 std::to_string(cell.sheds_streaming) + "/" +
                 std::to_string(cell.sheds_interactive) + "/" +
                 std::to_string(cell.sheds_control),
             std::to_string(cell.admission),
             std::to_string(cell.backpressure),
             std::to_string(cell.violations)});
        report.add("attempts_" + key, cell.attempts);
        report.add("accepted_" + key, cell.accepted);
        report.add("delivered_" + key, cell.delivered);
        report.add("segments_retx_" + key, cell.retx);
        report.add("segments_expired_" + key, cell.expired);
        report.add("segments_deferred_" + key, cell.deferred);
        report.add("goodput_" + key, goodput);
        report.add("goodput_interactive_" + key,
                   cell.per_class[1].goodput());
        report.add("goodput_bulk_" + key, cell.per_class[0].goodput());
        report.add("goodput_streaming_" + key,
                   cell.per_class[2].goodput());
        report.add("interactive_p99_us_" + key, cell.inter_p99_us);
        report.add("sheds_bulk_" + key, cell.sheds_bulk);
        report.add("sheds_streaming_" + key, cell.sheds_streaming);
        report.add("sheds_interactive_" + key, cell.sheds_interactive);
        report.add("sheds_control_" + key, cell.sheds_control);
        report.add("admission_rejects_" + key, cell.admission);
        report.add("backpressure_signals_" + key, cell.backpressure);
        report.add("session_sheds_" + key, cell.session_shed);
        report.add("stalls_suppressed_" + key, cell.stalls_suppressed);
        report.add("violations_" + key, cell.violations);
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Reading: `goodput` is delivered / attempted sends. Under the "
              "steady shape both arms ride well under the drain rate and "
              "tie. Under the flash crowd the drop arm tail-drops every "
              "class equally — retransmissions amplify the overload and "
              "interactive goodput collapses with the rest. The shed arm "
              "holds bulk back at the sender instead: the bounded send "
              "queue refuses and defers it (accepted < attempts, bulk_gp "
              "about half), so little bulk reaches the relays, which shed "
              "streaming first (sheds column: streaming > interactive >> "
              "bulk, control always 0) and backpressure the sender. "
              "Admission control never fires (admission column 0). "
              "Interactive goodput stays serviceable through the spike.\n");

  // Off means off: every overload/workload knob spelled at its default
  // must reproduce the pre-PR fingerprint.
  ChaosConfig spelled = control_chaos_config();
  spelled.workload = workload::WorkloadConfig{};
  spelled.environment.router.overload = anon::RouterConfig::OverloadConfig{};
  spelled.session.max_inflight_segments = 0;
  report.add("runs_per_cell", static_cast<std::uint64_t>(runs));
  const bool fingerprint_ok = check_control_fingerprint(report, spelled);
  report.add_section("overload", table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return fingerprint_ok ? 0 : 1;
}

// --- anonymity sweep -------------------------------------------------------
//
// --anonymity-sweep taps a LinkObserver into the wire and replays the
// captured flow log through the offline attack engine (DESIGN §10):
// predecessor (paper §5 Case 1 with a planted fraction-f insider set),
// intersection over trial windows, and timing correlation at the
// responder. 3 protocols x 5 arms: a compromised-fraction grid
// {f=5%, 10%, 20%}, a cover-traffic arm, and a fast-churn arm.
//
// The committed gates (scripts/check_bench_anonymity.py):
//   1. empirical first-relay compromise tracks 1-(1-f)^k across the f
//      grid for every protocol;
//   2. cover traffic strictly lowers timing-correlation success;
//   3. the multipath anonymity cost is visible: predecessor success and
//      entropy order sanely across CurMix/SimRep/SimEra;
//   4. off means off: the pre-PR control fingerprint reproduces with the
//      observer left unconfigured.

struct AnonymityArm {
  const char* name;
  double fraction;
  bool cover;
  bool fast_churn;
};

constexpr AnonymityArm kAnonArms[] = {
    {"f05", 0.05, false, false},  {"base", 0.10, false, false},
    {"f20", 0.20, false, false},  {"cover", 0.10, true, false},
    {"churn", 0.10, false, true},
};
constexpr std::size_t kAnonArmCount =
    sizeof(kAnonArms) / sizeof(kAnonArms[0]);

/// Short report-key slugs for the three protocol arms.
constexpr const char* kAnonProtoSlugs[] = {"curmix", "simrep2", "simera4"};

AnonymityConfig anonymity_cell_config(std::size_t proto, std::size_t arm,
                                      std::uint64_t seed,
                                      std::size_t nodes) {
  const anon::ProtocolSpec specs[] = {
      anon::ProtocolSpec::curmix(anon::MixChoice::kRandom),
      anon::ProtocolSpec::simrep(2, anon::MixChoice::kRandom),
      anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom)};
  const AnonymityArm& a = kAnonArms[arm];
  AnonymityConfig config;
  config.environment.num_nodes = nodes;
  config.environment.seed = seed;
  config.spec = specs[proto];
  config.compromised_fraction = a.fraction;
  config.cover_traffic = a.cover;
  config.trials = 36;  // 24 default; more trials tighten the f-grid gate
  if (a.fast_churn) {
    config.environment.session_distribution = "pareto:median=900";
    config.pin_all_up = false;  // measure rebuild-driven exposure
  }
  return config;
}

int run_anonymity_sweep(std::uint64_t seed, std::size_t seeds,
                        std::size_t nodes, std::size_t workers,
                        const std::string& json_path,
                        const std::string& flow_log_path) {
  const auto runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(seeds) * bench_scale()));
  constexpr std::size_t kProtoCount = 3;

  struct Job {
    std::size_t proto;
    std::size_t arm;
    std::size_t run;
  };
  std::vector<Job> jobs;
  for (std::size_t p = 0; p < kProtoCount; ++p) {
    for (std::size_t a = 0; a < kAnonArmCount; ++a) {
      for (std::size_t r = 0; r < runs; ++r) jobs.push_back({p, a, r});
    }
  }

  std::printf("# Anonymity sweep: passive global observer + offline "
              "attacks, %zu nodes, %zu seeds per cell\n",
              nodes, runs);

  std::vector<AnonymityResult> results(jobs.size());
  parallel_for(jobs.size(), workers, [&](std::size_t i) {
    const Job& job = jobs[i];
    AnonymityConfig config =
        anonymity_cell_config(job.proto, job.arm, seed + job.run, nodes);
    // One representative capture (CurMix/base, first seed) as link-record
    // JSONL, for tools/trace_analyze --flows cross-referencing.
    if (!flow_log_path.empty() && job.proto == 0 && job.arm == 1 &&
        job.run == 0) {
      config.flow_log_path = flow_log_path;
    }
    results[i] = run_anonymity_experiment(config);
  });

  struct Cell {
    double pred_success = 0, pred_compromise = 0, pred_entropy = 0;
    double pred_set = 0, gt_compromise = 0;
    double inter_success = 0, inter_set = 0;
    double corr_success = 0, corr_entropy = 0, corr_set = 0;
    double eq4 = 0, exposure = 0, uniform_entropy = 0;
    std::uint64_t trials = 0, constructed = 0, cover_msgs = 0;
    std::uint64_t flows = 0, evicted = 0;
  };
  std::vector<Cell> cells(kProtoCount * kAnonArmCount);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const AnonymityResult& r = results[i];
    Cell& cell = cells[job.proto * kAnonArmCount + job.arm];
    cell.pred_success += r.predecessor.success_rate;
    cell.pred_compromise += r.predecessor.compromise_rate;
    cell.pred_entropy += r.predecessor.posterior_entropy_bits;
    cell.pred_set += r.predecessor.anonymity_set_mean;
    cell.gt_compromise += r.ground_truth_compromise_rate;
    cell.inter_success += r.intersection.success_rate;
    cell.inter_set += r.intersection.anonymity_set_mean;
    cell.corr_success += r.correlation.success_rate;
    cell.corr_entropy += r.correlation.posterior_entropy_bits;
    cell.corr_set += r.correlation.anonymity_set_mean;
    cell.eq4 += r.eq4_identification;
    cell.exposure += r.multipath_exposure;
    cell.uniform_entropy += r.uniform_entropy;
    cell.trials += r.trials_attempted;
    cell.constructed += r.trials_constructed;
    cell.cover_msgs += r.cover_messages;
    cell.flows += r.flows_recorded;
    cell.evicted += r.flows_evicted;
  }

  const double denom = static_cast<double>(runs);
  metrics::Table table({"protocol", "arm", "pred_succ", "eq4",
                        "compromise", "1-(1-f)^k", "pred_H", "corr_succ",
                        "inter_set", "flows"});
  obs::BenchReport report("chaos_anonymity_sweep");
  for (std::size_t p = 0; p < kProtoCount; ++p) {
    for (std::size_t a = 0; a < kAnonArmCount; ++a) {
      const Cell& cell = cells[p * kAnonArmCount + a];
      const std::string proto = kAnonProtoSlugs[p];
      const std::string arm = kAnonArms[a].name;
      const std::string key = proto + "_" + arm;
      table.add_row(
          {anonymity_cell_config(p, a, 0, nodes).spec.name(), arm,
           format_double(cell.pred_success / denom, 3),
           format_double(cell.eq4 / denom, 3),
           format_double(cell.pred_compromise / denom, 3),
           format_double(cell.exposure / denom, 3),
           format_double(cell.pred_entropy / denom, 2),
           format_double(cell.corr_success / denom, 3),
           format_double(cell.inter_set / denom, 1),
           std::to_string(cell.flows)});
      report.add("pred_success_" + key, cell.pred_success / denom);
      report.add("pred_compromise_" + key, cell.pred_compromise / denom);
      report.add("pred_entropy_" + key, cell.pred_entropy / denom);
      report.add("pred_set_" + key, cell.pred_set / denom);
      report.add("gt_compromise_" + key, cell.gt_compromise / denom);
      report.add("inter_success_" + key, cell.inter_success / denom);
      report.add("inter_set_" + key, cell.inter_set / denom);
      report.add("corr_success_" + key, cell.corr_success / denom);
      report.add("corr_entropy_" + key, cell.corr_entropy / denom);
      report.add("corr_set_" + key, cell.corr_set / denom);
      report.add("eq4_" + key, cell.eq4 / denom);
      report.add("exposure_" + key, cell.exposure / denom);
      report.add("uniform_entropy_" + key, cell.uniform_entropy / denom);
      report.add("trials_" + key, cell.trials);
      report.add("constructed_" + key, cell.constructed);
      report.add("cover_messages_" + key, cell.cover_msgs);
      report.add("flows_" + key, cell.flows);
      report.add("flows_evicted_" + key, cell.evicted);
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Reading: `compromise` is the wire-observed fraction of "
              "trials whose first relay was an insider; it must track the "
              "1-(1-f)^k column across the f grid (more paths, more "
              "exposure — the multipath anonymity cost). `pred_succ` vs "
              "`eq4` compares the attacker's realized posterior mass on "
              "the initiator with the paper's closed form. Cover traffic "
              "leaves the predecessor columns alone but dilutes "
              "`corr_succ`: timing correlation cannot tell the real sender "
              "from the dummies. Under churn the intersection set shrinks "
              "toward the persistent initiator.\n");

  // Off means off: the observer hook explicitly nulled must reproduce the
  // pre-PR fingerprint byte for byte.
  ChaosConfig spelled = control_chaos_config();
  spelled.environment.link_tap = nullptr;
  report.add("runs_per_cell", static_cast<std::uint64_t>(runs));
  report.add("nodes", static_cast<std::uint64_t>(nodes));
  const bool fingerprint_ok = check_control_fingerprint(report, spelled);
  report.add_section("anonymity", table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return fingerprint_ok ? 0 : 1;
}

const ChaosScenario kScenarios[] = {
    ChaosScenario::kFlashCrowdCrash, ChaosScenario::kRollingPartition,
    ChaosScenario::kLossyLinkEpidemic, ChaosScenario::kCorruptedRelayQuorum,
    ChaosScenario::kMildLossDrizzle};

bool parse_scenario(const std::string& name, ChaosScenario& out) {
  for (const ChaosScenario scenario : kScenarios) {
    if (name == scenario_name(scenario)) {
      out = scenario;
      return true;
    }
  }
  return false;
}

/// One traced, sampled run: installs the trace sinks, executes the
/// scenario, and writes the Chrome JSON (plus the optional sampled JSONL
/// causal log, the optional time-series CSV, and the optional health
/// scoreboard printout).
int run_traced(const std::string& trace_path, const std::string& jsonl_path,
               const std::string& scenario_flag, bool adaptive,
               double sample_rate, std::uint64_t seed, std::size_t nodes,
               const std::string& json_path,
               const std::string& timeseries_path, bool health) {
  ChaosScenario scenario;
  if (!parse_scenario(scenario_flag, scenario)) {
    std::fprintf(stderr, "chaos_sweep: unknown --trace-scenario '%s'\n",
                 scenario_flag.c_str());
    return 1;
  }

  obs::ChromeTraceSink chrome;
  obs::JsonlTraceSink jsonl(sample_rate, seed);
  auto& tracer = obs::Tracer::instance();
  tracer.add_sink(&chrome);
  if (!jsonl_path.empty()) tracer.add_sink(&jsonl);
  obs::install_log_decorator();

  obs::Registry run_metrics;
  obs::TimeseriesRecorder timeseries(run_metrics);
  ChaosConfig config = sweep_config(scenario, seed, adaptive, nodes);
  config.environment.metrics = &run_metrics;
  config.environment.sampled = true;
  if (!timeseries_path.empty()) config.environment.timeseries = &timeseries;
  const ChaosResult result = run_chaos_experiment(config);

  obs::uninstall_log_decorator();
  tracer.clear_sinks();

  if (!chrome.write_file(trace_path)) {
    std::fprintf(stderr, "chaos_sweep: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("# Traced chaos run: %s, %s mode, seed %llu, %zu nodes\n",
              scenario_name(scenario), adaptive ? "adaptive" : "fixed",
              static_cast<unsigned long long>(seed), nodes);
  std::printf("trace: %zu events -> %s (open in Perfetto)\n",
              chrome.event_count(), trace_path.c_str());
  if (!jsonl_path.empty()) {
    if (!jsonl.write_file(jsonl_path)) {
      std::fprintf(stderr, "chaos_sweep: cannot write %s\n",
                   jsonl_path.c_str());
      return 1;
    }
    std::printf("causal log: %zu lines (sample rate %.3f) -> %s\n",
                jsonl.lines().size(), sample_rate, jsonl_path.c_str());
  }
  std::printf(
      "delivered %llu/%llu accepted, retx %llu, drops %llu, violations %llu\n",
      static_cast<unsigned long long>(result.messages_delivered),
      static_cast<unsigned long long>(result.messages_accepted),
      static_cast<unsigned long long>(result.segments_retransmitted),
      static_cast<unsigned long long>(result.drops.total()),
      static_cast<unsigned long long>(result.violations()));
  if (!timeseries_path.empty()) {
    if (!timeseries.write_csv(timeseries_path)) {
      std::fprintf(stderr, "chaos_sweep: cannot write %s\n",
                   timeseries_path.c_str());
      return 1;
    }
    std::printf("time series: %zu series x %zu samples -> %s\n",
                timeseries.series_count(), timeseries.sample_count(),
                timeseries_path.c_str());
  }
  if (health) {
    std::printf("# Health scoreboard (30 s windows)\n%s\n",
                result.health_table.c_str());
  }

  obs::BenchReport report("chaos_sweep_traced");
  report.add_text("scenario", scenario_name(scenario));
  report.add_text("mode", adaptive ? "adaptive" : "fixed");
  report.add("trace_events", static_cast<std::uint64_t>(chrome.event_count()));
  report.add("messages_delivered", result.messages_delivered);
  report.add("messages_accepted", result.messages_accepted);
  report.add("segments_retransmitted", result.segments_retransmitted);
  if (health) {
    report.add("health_windows",
               static_cast<std::uint64_t>(result.health.windows));
    report.add("health_churn_storm_windows",
               static_cast<std::uint64_t>(result.health.churn_storm_windows));
    report.add("health_stalled_path_windows",
               static_cast<std::uint64_t>(result.health.stalled_path_windows));
    report.add("health_max_transitions_per_window",
               result.health.max_transitions_per_window);
    report.add("health_max_drop_rate_per_s",
               result.health.max_drop_rate_per_s);
  }
  if (!report.write_if_requested(json_path, &run_metrics)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  auto& nodes = flags.add_int("nodes", 96, "network size");
  auto& seed = flags.add_int("seed", 1, "base RNG seed");
  auto& seeds = flags.add_int("seeds", 6, "runs to average");
  auto& threads = flags.add_int("threads", 0, "worker threads (0 = auto)");
  auto& json_path = obs::add_json_flag(flags);
  auto& trace_path = flags.add_string(
      "trace", "", "write Chrome trace JSON of one traced run, skip sweep");
  auto& trace_scenario = flags.add_string(
      "trace-scenario", "lossy-link-epidemic", "scenario for the traced run");
  auto& trace_adaptive = flags.add_bool(
      "trace-adaptive", true,
      "traced run uses adaptive RTO + retransmission (exercises the "
      "segment_retransmit spans)");
  auto& jsonl_path = flags.add_string(
      "jsonl", "", "also write a JSONL causal log of the traced run");
  auto& sample = flags.add_double(
      "sample", 1.0, "JSONL sampling rate (whole correlation chains)");
  auto& timeseries_path = flags.add_string(
      "timeseries", "",
      "write a windowed time-series CSV of the traced run's registry");
  auto& health = flags.add_bool(
      "health", false,
      "print the traced run's rolling health scoreboard");
  auto& byzantine = flags.add_bool(
      "byzantine-sweep", false,
      "sweep corruption probability x protocol x defense arm instead of "
      "the scenario sweep (delivered-correct / delivered-wrong / "
      "failed-closed accounting)");
  auto& byz_seeds = flags.add_int(
      "byz-seeds", 3, "seeds per byzantine sweep cell");
  auto& membership = flags.add_bool(
      "membership-sweep", false,
      "sweep control-plane fault scenarios (gossip blackout, leader crash, "
      "stale/claim poisoning) x recovery arms through the durability "
      "harness, plus the pre-PR control fingerprint guard");
  auto& mem_seeds = flags.add_int(
      "mem-seeds", 5, "seeds per membership sweep cell");
  auto& overload = flags.add_bool(
      "overload-sweep", false,
      "sweep workload shapes (steady/diurnal/flash) x protocols x "
      "shed-vs-drop arms through bounded relay queues, plus the pre-PR "
      "control fingerprint guard");
  auto& ovl_seeds = flags.add_int(
      "ovl-seeds", 2, "seeds per overload sweep cell");
  auto& anonymity = flags.add_bool(
      "anonymity-sweep", false,
      "tap a passive global observer into the wire and sweep protocol x "
      "{compromised-f grid, cover traffic, churn}, replaying the flow log "
      "through the predecessor/intersection/correlation attack engine");
  auto& anon_seeds = flags.add_int(
      "anon-seeds", 3, "seeds per anonymity sweep cell");
  auto& flow_log = flags.add_string(
      "flow-log", "",
      "anonymity sweep: dump one cell's captured flow log here as "
      "link-record JSONL (for trace_analyze --flows)");
  flags.parse(argc, argv);

  if (anonymity) {
    return run_anonymity_sweep(
        static_cast<std::uint64_t>(seed),
        static_cast<std::size_t>(anon_seeds),
        static_cast<std::size_t>(nodes),
        threads > 0 ? static_cast<std::size_t>(threads)
                    : default_worker_threads(),
        json_path, flow_log);
  }

  if (overload) {
    return run_overload_sweep(
        static_cast<std::uint64_t>(seed),
        static_cast<std::size_t>(ovl_seeds),
        threads > 0 ? static_cast<std::size_t>(threads)
                    : default_worker_threads(),
        json_path);
  }

  if (membership) {
    return run_membership_sweep(
        static_cast<std::uint64_t>(seed),
        static_cast<std::size_t>(mem_seeds),
        threads > 0 ? static_cast<std::size_t>(threads)
                    : default_worker_threads(),
        json_path);
  }

  if (byzantine) {
    return run_byzantine_sweep(
        static_cast<std::uint64_t>(seed),
        static_cast<std::size_t>(byz_seeds),
        static_cast<std::size_t>(nodes),
        threads > 0 ? static_cast<std::size_t>(threads)
                    : default_worker_threads(),
        json_path);
  }

  if (!trace_path.empty()) {
    return run_traced(trace_path, jsonl_path, trace_scenario, trace_adaptive,
                      sample, static_cast<std::uint64_t>(seed),
                      static_cast<std::size_t>(nodes), json_path,
                      timeseries_path, health);
  }

  const auto runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(seeds) * bench_scale()));
  const std::size_t workers =
      threads > 0 ? static_cast<std::size_t>(threads)
                  : default_worker_threads();

  std::printf("# Chaos sweep: SimEra(4,2)/random, %d nodes, 512 B every 5 s, "
              "fixed 5 s timeouts vs adaptive RTO+backoff, %zu seeds\n",
              static_cast<int>(nodes), runs);
  metrics::Table table({"scenario", "mode", "attempted delivery",
                        "accepted delivery", "retx", "violations"});
  // Per-cause accounting of every datagram that vanished. Each run counts
  // drops in its private registry (net_drops_total / fault_injections_total);
  // the sweep folds them into this aggregate registry, labeled by scenario
  // and mode, and the table below is rendered from it.
  obs::Registry sweep_metrics;
  metrics::Table drop_table({"scenario", "mode", "sender-dead",
                             "recv-dead", "link-loss", "crash", "partition",
                             "spike-loss", "corrupted", "duplicated"});
  for (const ChaosScenario scenario : kScenarios) {
    for (const bool adaptive : {false, true}) {
      std::vector<ChaosResult> results(runs);
      parallel_for(runs, workers, [&](std::size_t i) {
        results[i] = run_chaos_experiment(sweep_config(
            scenario, static_cast<std::uint64_t>(seed) + i, adaptive,
            static_cast<std::size_t>(nodes)));
      });
      double attempted = 0;
      double accepted = 0;
      std::uint64_t retx = 0;
      std::uint64_t violations = 0;
      const obs::Labels base{{"scenario", scenario_name(scenario)},
                             {"mode", adaptive ? "adaptive" : "fixed"}};
      auto cell = [&](const char* label_key, const char* name,
                      const char* value) {
        obs::Labels labels = base;
        labels[label_key] = value;
        return sweep_metrics.counter(name, labels);
      };
      obs::Counter* drop_cells[] = {
          cell("cause", "net_drops_total", "sender_dead"),
          cell("cause", "net_drops_total", "receiver_dead"),
          cell("cause", "net_drops_total", "link_loss"),
          cell("kind", "fault_injections_total", "dropped_crash"),
          cell("kind", "fault_injections_total", "dropped_partition"),
          cell("kind", "fault_injections_total", "dropped_loss"),
          cell("kind", "fault_injections_total", "corrupted"),
          cell("kind", "fault_injections_total", "duplicated")};
      for (const ChaosResult& result : results) {
        attempted += result.attempted_delivery_rate();
        accepted += result.delivery_rate();
        retx += result.segments_retransmitted;
        violations += result.violations();
        drop_cells[0]->inc(result.drops.sender_dead);
        drop_cells[1]->inc(result.drops.receiver_dead);
        drop_cells[2]->inc(result.drops.link_loss);
        drop_cells[3]->inc(result.faults.dropped_crash);
        drop_cells[4]->inc(result.faults.dropped_partition);
        drop_cells[5]->inc(result.faults.dropped_loss);
        drop_cells[6]->inc(result.faults.corrupted);
        drop_cells[7]->inc(result.faults.duplicated);
      }
      const double denom = static_cast<double>(runs);
      const char* mode_name = adaptive ? "adaptive" : "fixed";
      table.add_row({scenario_name(scenario), mode_name,
                     format_double(100.0 * attempted / denom, 1) + "%",
                     format_double(100.0 * accepted / denom, 1) + "%",
                     std::to_string(retx), std::to_string(violations)});
      std::vector<std::string> drop_row{scenario_name(scenario), mode_name};
      for (const obs::Counter* counter : drop_cells) {
        drop_row.push_back(std::to_string(counter->value()));
      }
      drop_table.add_row(std::move(drop_row));
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("# Datagram loss by cause (summed over seeds)\n%s\n",
              drop_table.render().c_str());
  std::printf("Reading: the adaptive mode's RTT-tracked timeouts and "
              "retransmission over surviving paths recover individual "
              "datagram losses that fixed 5 s timeouts escalate into path "
              "teardowns, so it leads on the attempted ratio wherever "
              "links are lossy or relays corrupt traffic. Under pure "
              "crash/partition faults the tradeoff reverses: there "
              "retransmission cannot help (the path is dead, not lossy) "
              "and the fixed mode's unbounded rebuild-and-resend loop "
              "beats the adaptive mode's bounded retry budget. Violations "
              "must read 0 — every run also upholds the conservation, "
              "ledger, and no-leak invariants asserted by chaos_test.\n");

  obs::BenchReport report("chaos_sweep");
  report.add("runs_per_cell", static_cast<std::uint64_t>(runs));
  report.add_section("delivery", table.to_json());
  report.add_section("drops_by_cause", drop_table.to_json());
  if (!report.write_if_requested(json_path, &sweep_metrics)) return 1;
  return 0;
}
