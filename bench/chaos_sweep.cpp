// Chaos sweep: five seeded sweeps over the chaos, durability and
// anonymity harnesses, selected with --sweep NAME. Each is a grid of
// configuration cells averaged over seeds; every (cell, seed) run shares
// one run_cells worker pool. --seeds 0 (the default) runs the sweep's
// committed seed count, so `chaos_sweep --sweep X --json F` alone
// reproduces BENCH_X.json.
//
//   scenarios   (default, 6 seeds) delivered fraction under every scripted
//               fault scenario, fixed 5 s timeouts (the paper's
//               configuration) vs the adaptive RTO/backoff mode;
//   byzantine   (3 seeds) corruption probability x protocol x defense arm;
//   membership  (5 seeds) control-plane faults x recovery arms;
//   overload    (2 seeds) load shape x protocol x shed/drop arm;
//   anonymity   (6 seeds) protocol x {compromised-f grid, cover traffic,
//               churn} under a passive global observer.
//
// The scenarios sweep pins a SimEra(4,2) pair that exchanges a 512 B
// message every 5 s through a 96-node network while the scenario's
// FaultPlan runs (see harness/chaos_experiment.hpp). Reported per
// scenario x mode:
//   * attempted delivery — delivered / send_message calls. Charges a mode
//     for refusing sends while its paths are down, so stalling cannot
//     hide behind a shrunken denominator;
//   * accepted delivery  — delivered / accepted (nonzero message id);
//   * retx               — adaptive-mode segment retransmissions;
//   * violations         — unaccounted messages + residual state leaks +
//     open segment ledgers across all runs (the chaos invariants; must
//     be 0).
//
// With --trace <path> no sweep runs: ONE run of --trace-scenario
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
#include <functional>
#include <iterator>
#include <string>
#include <type_traits>
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

/// What every sweep reads from the command line.
struct SweepArgs {
  std::uint64_t seed;  // a cell's runs use seed, seed + 1, ...
  std::size_t runs;    // seeds per cell
  std::size_t nodes;   // --nodes; the membership and overload sweeps fix 64
  std::size_t workers;
  std::string json_path;
  std::string flow_log;  // anonymity sweep only
};

/// `field` (a data member, a getter or a lambda) summed over one cell's
/// runs in seed order.
template <typename Result, typename Field>
auto sum(const std::vector<Result>& runs, Field field) {
  std::decay_t<std::invoke_result_t<Field&, const Result&>> total{};
  for (const Result& run : runs) total += std::invoke(field, run);
  return total;
}

/// The three protocols the byzantine, overload and anonymity sweeps
/// compare. `spec` uses random mix choice; the byzantine suspicion arm
/// switches it to biased.
struct Protocol {
  const char* name;  // byzantine and overload table column
  const char* slug;  // overload and anonymity report keys
  anon::ProtocolSpec spec;
};

const Protocol kProtocols[] = {
    {"curmix", "curmix",
     anon::ProtocolSpec::curmix(anon::MixChoice::kRandom)},
    {"simrep(2)", "simrep2",
     anon::ProtocolSpec::simrep(2, anon::MixChoice::kRandom)},
    {"simera(4,2)", "simera4",
     anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom)},
};
constexpr std::size_t kProtocolCount = std::size(kProtocols);

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
// --sweep byzantine is an integrity study: the corrupted-relay-quorum
// scenario is rerun across per-datagram flip probabilities, protocols, and
// three defense arms:
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

int run_byzantine_sweep(const SweepArgs& args) {
  constexpr std::size_t kArmCount = std::size(kByzArms);
  std::printf("# Byzantine sweep: corrupted-relay-quorum, %zu nodes, "
              "512 B every 5 s, %zu seeds per cell\n",
              args.nodes, args.runs);

  // Cells run probability-major, then protocol, then arm.
  const auto results = run_cells(
      std::size(kByzProbs) * kProtocolCount * kArmCount, args.runs,
      args.workers, [&](std::size_t cell, std::size_t run) {
        const ByzArm& arm = kByzArms[cell % kArmCount];
        ChaosConfig config =
            sweep_config(ChaosScenario::kCorruptedRelayQuorum,
                         args.seed + run, /*adaptive=*/false, args.nodes);
        config.spec = kProtocols[cell / kArmCount % kProtocolCount].spec;
        if (arm.suspicion) config.spec.mix = anon::MixChoice::kBiased;
        config.byzantine_probability =
            kByzProbs[cell / (kArmCount * kProtocolCount)];
        config.session.segment_auth = arm.tags;
        config.session.relay_suspicion = arm.suspicion;
        return run_chaos_experiment(config);
      });

  metrics::Table table({"p_corrupt", "protocol", "arm", "accepted", "correct",
                        "wrong", "failed_closed", "correct_rate",
                        "wrong_rate", "auth_rejected", "corrupt_nacks",
                        "quarantined", "violations"});
  std::size_t cell = 0;
  for (const double prob : kByzProbs) {
    for (const Protocol& protocol : kProtocols) {
      for (const ByzArm& arm : kByzArms) {
        const std::vector<ChaosResult>& runs = results[cell++];
        const std::uint64_t accepted =
            sum(runs, &ChaosResult::messages_accepted);
        const std::uint64_t correct =
            sum(runs, &ChaosResult::messages_delivered_correct);
        const std::uint64_t wrong =
            sum(runs, &ChaosResult::messages_delivered_wrong);
        const double denom =
            accepted > 0 ? static_cast<double>(accepted) : 1.0;
        table.add_row(
            {format_double(prob, 2), protocol.name, arm.name,
             std::to_string(accepted), std::to_string(correct),
             std::to_string(wrong),
             std::to_string(accepted - correct - wrong),
             format_double(static_cast<double>(correct) / denom, 4),
             format_double(static_cast<double>(wrong) / denom, 4),
             std::to_string(sum(runs, &ChaosResult::auth_rejected)),
             std::to_string(sum(runs, &ChaosResult::auth_nacks)),
             std::to_string(sum(runs, &ChaosResult::quarantined_nodes)),
             std::to_string(sum(runs, &ChaosResult::violations))});
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
  report.add("runs_per_cell", static_cast<std::uint64_t>(args.runs));
  report.add("nodes", static_cast<std::uint64_t>(args.nodes));
  report.add_section("byzantine", table.to_json());
  if (!report.write_if_requested(args.json_path)) return 1;
  return 0;
}

// --- membership sweep ------------------------------------------------------
//
// --sweep membership drives the *control plane* fault scenarios
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

int run_membership_sweep(const SweepArgs& args) {
  constexpr MembershipScenario kMemScenarios[] = {
      MembershipScenario::kGossipBlackout, MembershipScenario::kLeaderCrash,
      MembershipScenario::kStaleInject, MembershipScenario::kClaimInflate};
  constexpr MembershipArm kArms[] = {MembershipArm::kRandom,
                                     MembershipArm::kBiased,
                                     MembershipArm::kResilient};
  constexpr std::size_t kArmCount = std::size(kArms);

  std::printf("# Membership sweep: control-plane faults x recovery arms, "
              "64 nodes, SimEra(4,2), %zu seeds per cell\n",
              args.runs);

  const auto results = run_cells(
      std::size(kMemScenarios) * kArmCount, args.runs, args.workers,
      [&](std::size_t cell, std::size_t run) {
        MembershipChaosConfig config;
        config.scenario = kMemScenarios[cell / kArmCount];
        config.arm = kArms[cell % kArmCount];
        config.seed = args.seed + run;
        return run_membership_chaos(config);
      });

  const double denom = static_cast<double>(args.runs);
  metrics::Table table({"scenario", "arm", "durability_s", "attempts",
                        "delivery", "belief", "stale_fallbacks",
                        "repair_accepted", "elections"});
  metrics::Table drop_table({"scenario", "arm", "gossip-blackout",
                             "gossip-loss", "stale-inject", "claim-inflate",
                             "crash-drop"});
  obs::BenchReport report("chaos_membership_sweep");
  std::size_t cell = 0;
  for (const MembershipScenario membership_scenario : kMemScenarios) {
    for (const MembershipArm membership_arm : kArms) {
      const std::vector<DurabilityResult>& runs = results[cell++];
      const char* scenario = membership_scenario_name(membership_scenario);
      const char* arm = membership_arm_name(membership_arm);
      // The cell's sum of `field`, rendered.
      const auto total = [&](auto field) {
        return std::to_string(sum(runs, field));
      };
      const double durability =
          sum(runs, &DurabilityResult::durability_seconds) / denom;
      const double attempts =
          static_cast<double>(sum(runs, &DurabilityResult::construct_attempts));
      const std::uint64_t sent = sum(runs, &DurabilityResult::messages_sent);
      const std::uint64_t delivered =
          sum(runs, &DurabilityResult::messages_delivered);
      const double delivery = sent > 0 ? 100.0 *
                                             static_cast<double>(delivered) /
                                             static_cast<double>(sent)
                                       : 0.0;
      const double belief = sum(runs, &DurabilityResult::belief_accuracy);
      table.add_row(
          {scenario, arm, format_double(durability, 1),
           format_double(attempts / denom, 1), format_double(delivery, 1) + "%",
           format_double(100.0 * belief / denom, 1) + "%",
           total(&DurabilityResult::mix_stale_fallbacks) + "/" +
               total(&DurabilityResult::mix_biased_selects),
           total([](auto& r) { return r.control.repair_records_accepted; }),
           total([](auto& r) { return r.control.elections; })});
      drop_table.add_row(
          {scenario, arm,
           total([](auto& r) { return r.faults.dropped_gossip_blackout; }),
           total([](auto& r) { return r.faults.dropped_gossip_loss; }),
           total([](auto& r) { return r.faults.stale_injected; }),
           total([](auto& r) { return r.faults.claims_inflated; }),
           total([](auto& r) { return r.faults.dropped_crash; })});
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
  report.add("runs_per_cell", static_cast<std::uint64_t>(args.runs));
  const bool fingerprint_ok = check_control_fingerprint(report, spelled);
  report.add_section("durability", table.to_json());
  report.add_section("membership_drops", drop_table.to_json());
  if (!report.write_if_requested(args.json_path)) return 1;
  return fingerprint_ok ? 0 : 1;
}

// --- overload sweep --------------------------------------------------------
//
// --sweep overload is a saturation study: the
// workload engine offers a bulk/interactive/streaming mix whose rate is
// shaped {steady, diurnal, flash} while every relay runs a bounded leaky-
// bucket queue, across 3 protocols x 2 arms (anon::OverloadPolicy):
//
//   shed   kShed: priority-aware load shedding (bulk before streaming
//          before interactive, control never) + reverse-path backpressure
//          + the session-side bounded send queue;
//   drop   kTailDrop: the same bounded queue with priority-blind tail drop
//          and no backpressure — what a naive bounded relay does.
//
// The committed gates (scripts/check_bench_overload.py): under the flash
// crowd the shed arm's goodput stays above a floor while the drop arm
// collapses below it, interactive p99 stays bounded, zero control-plane
// segments are ever shed, and the off-means-off control fingerprint
// reproduces byte for byte.

struct OverloadArm {
  const char* name;
  anon::OverloadPolicy policy;
};

constexpr OverloadArm kOvlArms[] = {{"shed", anon::OverloadPolicy::kShed},
                                    {"drop", anon::OverloadPolicy::kTailDrop}};
constexpr workload::LoadShape kOvlShapes[] = {workload::LoadShape::kSteady,
                                              workload::LoadShape::kDiurnal,
                                              workload::LoadShape::kFlashCrowd};
constexpr std::size_t kOvlArmCount = std::size(kOvlArms);
constexpr std::size_t kOvlShapeCount = std::size(kOvlShapes);

ChaosConfig overload_cell_config(const anon::ProtocolSpec& spec,
                                 workload::LoadShape shape,
                                 anon::OverloadPolicy policy,
                                 std::uint64_t seed) {
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
  config.spec = spec;
  config.workload.enabled = true;
  config.workload.shape = shape;
  // 4 msg/s (plus ~20% retransmit traffic from the drizzle) against a
  // 10/s relay drain: steady is ~0.5x load, the diurnal peak ~0.8x, and
  // the 4x flash ~2x — the overload regime the gate reasons about.
  config.workload.mean_interarrival = 250 * kMillisecond;
  config.environment.router.overload = policy;
  return config;
}

int run_overload_sweep(const SweepArgs& args) {
  std::printf("# Overload sweep: workload shapes x shed/drop arms, 64 "
              "nodes, mixed traffic at 4 msg/s vs 10/s relay drain, %zu "
              "seeds per cell\n",
              args.runs);

  // Cells run protocol-major, then shape, then arm.
  const auto results = run_cells(
      kProtocolCount * kOvlShapeCount * kOvlArmCount, args.runs,
      args.workers, [&](std::size_t cell, std::size_t run) {
        return run_chaos_experiment(overload_cell_config(
            kProtocols[cell / (kOvlShapeCount * kOvlArmCount)].spec,
            kOvlShapes[cell / kOvlArmCount % kOvlShapeCount],
            kOvlArms[cell % kOvlArmCount].policy, args.seed + run));
      });

  metrics::Table table({"protocol", "shape", "arm", "attempts", "accepted",
                        "goodput", "inter_gp", "bulk_gp", "inter_p99_ms",
                        "retx", "expired", "sheds b/s/i/c", "bp",
                        "violations"});
  obs::BenchReport report("chaos_overload_sweep");
  std::size_t cell = 0;
  for (const Protocol& protocol : kProtocols) {
    for (const workload::LoadShape shape : kOvlShapes) {
      for (const OverloadArm& arm : kOvlArms) {
        const std::vector<ChaosResult>& runs = results[cell++];
        const std::string key = std::string(protocol.slug) + "_" +
                                workload::load_shape_name(shape) + "_" +
                                arm.name;
        const std::uint64_t attempts = sum(runs, &ChaosResult::send_attempts);
        const std::uint64_t accepted =
            sum(runs, &ChaosResult::messages_accepted);
        const std::uint64_t delivered =
            sum(runs, &ChaosResult::messages_delivered);
        const std::uint64_t retx =
            sum(runs, &ChaosResult::segments_retransmitted);
        const std::uint64_t expired = sum(runs, &ChaosResult::segments_expired);
        const double goodput = attempts > 0
                                   ? static_cast<double>(delivered) /
                                         static_cast<double>(attempts)
                                   : 0.0;
        // One traffic class's goodput over the runs' summed sends.
        const auto class_goodput = [&](workload::TrafficClass c) {
          ChaosResult::ClassStats total;
          for (const ChaosResult& r : runs) {
            const ChaosResult::ClassStats& stats =
                r.per_class[static_cast<std::size_t>(c)];
            total.attempts += stats.attempts;
            total.delivered += stats.delivered;
          }
          return total.goodput();
        };
        const double inter_gp =
            class_goodput(workload::TrafficClass::kInteractive);
        const double bulk_gp = class_goodput(workload::TrafficClass::kBulk);
        std::uint64_t inter_p99_us = 0;  // the worst run's p99
        for (const ChaosResult& r : runs) {
          inter_p99_us = std::max(inter_p99_us, r.interactive_p99_us);
        }
        const std::uint64_t sheds_bulk =
            sum(runs, &ChaosResult::relay_sheds_bulk);
        const std::uint64_t sheds_streaming =
            sum(runs, &ChaosResult::relay_sheds_streaming);
        const std::uint64_t sheds_interactive =
            sum(runs, &ChaosResult::relay_sheds_interactive);
        const std::uint64_t sheds_control =
            sum(runs, &ChaosResult::relay_sheds_control);
        const std::uint64_t backpressure =
            sum(runs, &ChaosResult::backpressure_signals);
        const std::uint64_t violations = sum(runs, &ChaosResult::violations);
        table.add_row(
            {protocol.name, workload::load_shape_name(shape), arm.name,
             std::to_string(attempts), std::to_string(accepted),
             format_double(goodput, 3), format_double(inter_gp, 3),
             format_double(bulk_gp, 3), std::to_string(inter_p99_us / 1000),
             std::to_string(retx), std::to_string(expired),
             std::to_string(sheds_bulk) + "/" +
                 std::to_string(sheds_streaming) + "/" +
                 std::to_string(sheds_interactive) + "/" +
                 std::to_string(sheds_control),
             std::to_string(backpressure),
             std::to_string(violations)});
        report.add("attempts_" + key, attempts);
        report.add("accepted_" + key, accepted);
        report.add("delivered_" + key, delivered);
        report.add("segments_retx_" + key, retx);
        report.add("segments_expired_" + key, expired);
        report.add("segments_deferred_" + key,
                   sum(runs, &ChaosResult::session_segments_deferred));
        report.add("goodput_" + key, goodput);
        report.add("goodput_interactive_" + key, inter_gp);
        report.add("goodput_bulk_" + key, bulk_gp);
        report.add("goodput_streaming_" + key,
                   class_goodput(workload::TrafficClass::kStreaming));
        report.add("interactive_p99_us_" + key, inter_p99_us);
        report.add("sheds_bulk_" + key, sheds_bulk);
        report.add("sheds_streaming_" + key, sheds_streaming);
        report.add("sheds_interactive_" + key, sheds_interactive);
        report.add("sheds_control_" + key, sheds_control);
        report.add("backpressure_signals_" + key, backpressure);
        report.add("session_sheds_" + key,
                   sum(runs, &ChaosResult::session_messages_shed));
        report.add("stalls_suppressed_" + key,
                   sum(runs, &ChaosResult::session_stalls_suppressed));
        report.add("violations_" + key, violations);
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
              "Interactive goodput stays serviceable through the spike.\n");

  // Off means off: the workload engine and the overload policy spelled at
  // their defaults must reproduce the pre-overload fingerprint.
  ChaosConfig spelled = control_chaos_config();
  spelled.workload = workload::WorkloadConfig{};
  spelled.environment.router.overload = anon::OverloadPolicy::kOff;
  report.add("runs_per_cell", static_cast<std::uint64_t>(args.runs));
  const bool fingerprint_ok = check_control_fingerprint(report, spelled);
  report.add_section("overload", table.to_json());
  if (!report.write_if_requested(args.json_path)) return 1;
  return fingerprint_ok ? 0 : 1;
}

// --- anonymity sweep -------------------------------------------------------
//
// --sweep anonymity taps a LinkObserver into the wire and replays the
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
constexpr std::size_t kAnonArmCount = std::size(kAnonArms);

AnonymityConfig anonymity_cell_config(const anon::ProtocolSpec& spec,
                                      const AnonymityArm& arm,
                                      std::uint64_t seed,
                                      std::size_t nodes) {
  AnonymityConfig config;
  config.environment.num_nodes = nodes;
  config.environment.seed = seed;
  config.spec = spec;
  config.compromised_fraction = arm.fraction;
  config.cover_traffic = arm.cover;
  config.trials = 36;  // 24 default; more trials tighten the f-grid gate
  if (arm.fast_churn) {
    config.environment.session_distribution = "pareto:median=900";
    config.pin_all_up = false;  // measure rebuild-driven exposure
  }
  return config;
}

int run_anonymity_sweep(const SweepArgs& args) {
  std::printf("# Anonymity sweep: passive global observer + offline "
              "attacks, %zu nodes, %zu seeds per cell\n",
              args.nodes, args.runs);

  // Cells run protocol-major, then arm.
  const auto results = run_cells(
      kProtocolCount * kAnonArmCount, args.runs, args.workers,
      [&](std::size_t cell, std::size_t run) {
        const std::size_t protocol = cell / kAnonArmCount;
        const std::size_t arm = cell % kAnonArmCount;
        AnonymityConfig config =
            anonymity_cell_config(kProtocols[protocol].spec, kAnonArms[arm],
                                  args.seed + run, args.nodes);
        // One representative capture (CurMix/base, first seed) as
        // link-record JSONL, for tools/trace_analyze --flows
        // cross-referencing.
        if (!args.flow_log.empty() && protocol == 0 && arm == 1 && run == 0) {
          config.flow_log_path = args.flow_log;
        }
        return run_anonymity_experiment(config);
      });

  const double denom = static_cast<double>(args.runs);
  metrics::Table table({"protocol", "arm", "pred_succ", "eq4",
                        "compromise", "1-(1-f)^k", "pred_H", "corr_succ",
                        "inter_set", "flows"});
  obs::BenchReport report("chaos_anonymity_sweep");
  std::size_t cell = 0;
  for (const Protocol& protocol : kProtocols) {
    for (const AnonymityArm& arm : kAnonArms) {
      const std::vector<AnonymityResult>& runs = results[cell++];
      const std::string key = std::string(protocol.slug) + "_" + arm.name;
      const auto mean = [&](auto field) { return sum(runs, field) / denom; };
      const double pred_success =
          mean([](auto& r) { return r.predecessor.success_rate; });
      const double pred_compromise =
          mean([](auto& r) { return r.predecessor.compromise_rate; });
      const double pred_entropy =
          mean([](auto& r) { return r.predecessor.posterior_entropy_bits; });
      const double inter_set =
          mean([](auto& r) { return r.intersection.anonymity_set_mean; });
      const double corr_success =
          mean([](auto& r) { return r.correlation.success_rate; });
      const double eq4 = mean(&AnonymityResult::eq4_identification);
      const double exposure = mean(&AnonymityResult::multipath_exposure);
      const std::uint64_t flows = sum(runs, &AnonymityResult::flows_recorded);
      table.add_row({protocol.spec.name(), arm.name,
                     format_double(pred_success, 3), format_double(eq4, 3),
                     format_double(pred_compromise, 3),
                     format_double(exposure, 3),
                     format_double(pred_entropy, 2),
                     format_double(corr_success, 3),
                     format_double(inter_set, 1), std::to_string(flows)});
      report.add("pred_success_" + key, pred_success);
      report.add("pred_compromise_" + key, pred_compromise);
      report.add("pred_entropy_" + key, pred_entropy);
      report.add("pred_set_" + key, mean([](auto& r) {
                   return r.predecessor.anonymity_set_mean;
                 }));
      report.add("gt_compromise_" + key,
                 mean(&AnonymityResult::ground_truth_compromise_rate));
      report.add("inter_success_" + key,
                 mean([](auto& r) { return r.intersection.success_rate; }));
      report.add("inter_set_" + key, inter_set);
      report.add("corr_success_" + key, corr_success);
      report.add("corr_entropy_" + key, mean([](auto& r) {
                   return r.correlation.posterior_entropy_bits;
                 }));
      report.add("corr_set_" + key, mean([](auto& r) {
                   return r.correlation.anonymity_set_mean;
                 }));
      report.add("eq4_" + key, eq4);
      report.add("exposure_" + key, exposure);
      report.add("uniform_entropy_" + key,
                 mean(&AnonymityResult::uniform_entropy));
      report.add("trials_" + key,
                 static_cast<std::uint64_t>(
                     sum(runs, &AnonymityResult::trials_attempted)));
      report.add("constructed_" + key,
                 static_cast<std::uint64_t>(
                     sum(runs, &AnonymityResult::trials_constructed)));
      report.add("cover_messages_" + key,
                 sum(runs, &AnonymityResult::cover_messages));
      report.add("flows_" + key, flows);
      report.add("flows_evicted_" + key,
                 sum(runs, &AnonymityResult::flows_evicted));
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
  report.add("runs_per_cell", static_cast<std::uint64_t>(args.runs));
  report.add("nodes", static_cast<std::uint64_t>(args.nodes));
  const bool fingerprint_ok = check_control_fingerprint(report, spelled);
  report.add_section("anonymity", table.to_json());
  if (!report.write_if_requested(args.json_path)) return 1;
  return fingerprint_ok ? 0 : 1;
}

const ChaosScenario kScenarios[] = {
    ChaosScenario::kFlashCrowdCrash, ChaosScenario::kRollingPartition,
    ChaosScenario::kLossyLinkEpidemic, ChaosScenario::kCorruptedRelayQuorum,
    ChaosScenario::kMildLossDrizzle};

int run_scenario_sweep(const SweepArgs& args) {
  std::printf("# Chaos sweep: SimEra(4,2)/random, %zu nodes, 512 B every 5 s, "
              "fixed 5 s timeouts vs adaptive RTO+backoff, %zu seeds\n",
              args.nodes, args.runs);
  // Cell 2s is scenario s with fixed timeouts, cell 2s + 1 adaptive.
  const auto results = run_cells(
      std::size(kScenarios) * 2, args.runs, args.workers,
      [&](std::size_t cell, std::size_t run) {
        return run_chaos_experiment(sweep_config(kScenarios[cell / 2],
                                                 args.seed + run,
                                                 cell % 2 == 1, args.nodes));
      });

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
  const double denom = static_cast<double>(args.runs);
  for (std::size_t cell = 0; cell < results.size(); ++cell) {
    const std::vector<ChaosResult>& runs = results[cell];
    const char* scenario = scenario_name(kScenarios[cell / 2]);
    const char* mode_name = cell % 2 == 1 ? "adaptive" : "fixed";
    // Adds `total` to the cell's series of `name` and renders the series.
    const auto fold = [&](const char* label_key, const char* name,
                          const char* value, std::uint64_t total) {
      obs::Counter* counter = sweep_metrics.counter(
          name, {{"scenario", scenario}, {"mode", mode_name},
                 {label_key, value}});
      counter->inc(total);
      return std::to_string(counter->value());
    };
    const double attempted = sum(runs, &ChaosResult::attempted_delivery_rate);
    const double accepted = sum(runs, &ChaosResult::delivery_rate);
    table.add_row(
        {scenario, mode_name, format_double(100.0 * attempted / denom, 1) + "%",
         format_double(100.0 * accepted / denom, 1) + "%",
         std::to_string(sum(runs, &ChaosResult::segments_retransmitted)),
         std::to_string(sum(runs, &ChaosResult::violations))});
    drop_table.add_row(
        {scenario, mode_name,
         fold("cause", "net_drops_total", "sender_dead",
              sum(runs, [](auto& r) { return r.drops.sender_dead; })),
         fold("cause", "net_drops_total", "receiver_dead",
              sum(runs, [](auto& r) { return r.drops.receiver_dead; })),
         fold("cause", "net_drops_total", "link_loss",
              sum(runs, [](auto& r) { return r.drops.link_loss; })),
         fold("kind", "fault_injections_total", "dropped_crash",
              sum(runs, [](auto& r) { return r.faults.dropped_crash; })),
         fold("kind", "fault_injections_total", "dropped_partition",
              sum(runs, [](auto& r) { return r.faults.dropped_partition; })),
         fold("kind", "fault_injections_total", "dropped_loss",
              sum(runs, [](auto& r) { return r.faults.dropped_loss; })),
         fold("kind", "fault_injections_total", "corrupted",
              sum(runs, [](auto& r) { return r.faults.corrupted; })),
         fold("kind", "fault_injections_total", "duplicated",
              sum(runs, [](auto& r) { return r.faults.duplicated; }))});
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
  report.add("runs_per_cell", static_cast<std::uint64_t>(args.runs));
  report.add_section("delivery", table.to_json());
  report.add_section("drops_by_cause", drop_table.to_json());
  if (!report.write_if_requested(args.json_path, &sweep_metrics)) return 1;
  return 0;
}

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

/// The sweeps --sweep selects. `seeds` is the committed seeds per cell,
/// used when --seeds is 0.
struct Sweep {
  const char* name;
  std::int64_t seeds;
  int (*run)(const SweepArgs&);
};

constexpr Sweep kSweeps[] = {
    {"scenarios", 6, run_scenario_sweep},
    {"byzantine", 3, run_byzantine_sweep},
    {"membership", 5, run_membership_sweep},
    {"overload", 2, run_overload_sweep},
    {"anonymity", 6, run_anonymity_sweep},
};

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  auto& sweep_name = flags.add_string(
      "sweep", "scenarios",
      "sweep to run: scenarios (fault scenario x timeout mode), byzantine "
      "(corruption probability x protocol x defense arm), membership "
      "(control-plane faults x recovery arms), overload (load shape x "
      "protocol x shed/drop arm) or anonymity (protocol x {compromised-f "
      "grid, cover traffic, churn} under a passive observer)");
  auto& nodes = flags.add_int(
      "nodes", 96, "network size (membership and overload fix 64)");
  auto& seed = flags.add_int("seed", 1, "base RNG seed");
  auto& seeds = flags.add_int(
      "seeds", 0, "seeds per cell (0 = the sweep's committed count)");
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
  auto& flow_log = flags.add_string(
      "flow-log", "",
      "anonymity sweep: dump one cell's captured flow log here as "
      "link-record JSONL (for trace_analyze --flows)");
  flags.parse(argc, argv);

  const auto sweep =
      std::find_if(std::begin(kSweeps), std::end(kSweeps),
                   [&](const Sweep& s) { return sweep_name == s.name; });
  if (sweep == std::end(kSweeps)) {
    std::fprintf(stderr, "unknown --sweep %s\n%s", sweep_name.c_str(),
                 flags.usage(argv[0]).c_str());
    return 2;
  }

  if (!trace_path.empty()) {
    return run_traced(trace_path, jsonl_path, trace_scenario, trace_adaptive,
                      sample, static_cast<std::uint64_t>(seed),
                      static_cast<std::size_t>(nodes), json_path,
                      timeseries_path, health);
  }

  return sweep->run({static_cast<std::uint64_t>(seed),
                     scaled_runs(seeds > 0 ? seeds : sweep->seeds),
                     static_cast<std::size_t>(nodes), worker_threads(threads),
                     json_path, flow_log});
}
