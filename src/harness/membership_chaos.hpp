// Membership-layer chaos scenarios (control-plane resilience, DESIGN §9).
//
// The chaos harness attacks the data plane; this harness attacks the
// *control plane* — the membership layer whose liveness knowledge the
// paper's biased mix choice depends on — and measures what the durability
// experiment sees on the other side. Each run is one durability experiment
// (pinned initiator/responder, warmup, construct, hourly-style send loop)
// under one scenario x recovery arm:
//
//   scenarios
//     gossip-blackout   every gossip datagram dropped network-wide for a
//                       window before construction; data plane untouched.
//                       Liveness knowledge rots while routing keeps working.
//     leader-crash      OneHop dissemination; every initial unit leader
//                       (except the pinned endpoints) fault-plan-crashed.
//                       Ground-truth leadership never notices (the crash is
//                       invisible to churn), so without failover the units'
//                       caches starve.
//     stale-inject      in-flight records aged by +extra dt_since — the
//                       receivers believe their knowledge is older than it
//                       is, eroding freshness contests and record ages.
//     claim-inflate     a fixed subset of nodes inflates its own dt_alive
//                       in flight — the bounded liveness-claim attack:
//                       fake uptime attracts Eq. 3 biased selection.
//
//   arms
//     random            MixChoice::kRandom — ignores liveness entirely;
//                       the durability floor every defense is gated on.
//     biased            MixChoice::kBiased, no recovery features — Eq. 3
//                       ranking over whatever the faulted membership says.
//     resilient         kBiased + staleness-aware selection + anti-entropy
//                       repair + bounded-trust merging + per-node RNG
//                       (+ deterministic leader failover under OneHop).
//
// The CI gate (scripts/check_bench_membership.py over BENCH_membership.json)
// asserts the resilient arm's durability never falls below the random floor
// under gossip blackout — i.e. the recovery machinery restores at least as
// much selection quality as admitting total ignorance.
#pragma once

#include "fault/fault_plan.hpp"
#include "harness/durability_experiment.hpp"

namespace p2panon::harness {

enum class MembershipScenario {
  kGossipBlackout,
  kLeaderCrash,
  kStaleInject,
  kClaimInflate
};

enum class MembershipArm { kRandom, kBiased, kResilient };

const char* membership_scenario_name(MembershipScenario scenario);
const char* membership_arm_name(MembershipArm arm);

struct MembershipChaosConfig {
  std::size_t num_nodes = 64;
  std::uint64_t seed = 1;
  MembershipScenario scenario = MembershipScenario::kGossipBlackout;
  MembershipArm arm = MembershipArm::kRandom;

  /// Durability-experiment shape. The blackout window sits inside warmup
  /// ([warmup - 10 min, warmup - 2 min]), so warmup must be >= 10 min: the
  /// cache rots for 8 min and the recovery machinery gets 2 min to heal it
  /// before the construct-at-warmup moment the whole run hinges on.
  SimDuration warmup = 12 * kMinute;
  SimDuration measure = 15 * kMinute;
  SimDuration send_interval = 10 * kSecond;

  /// Resilient-arm anti-entropy cadence (ignored by the other arms).
  SimDuration anti_entropy_interval = 15 * kSecond;

  /// OneHop shape for the leader-crash scenario.
  std::size_t onehop_units = 8;

  /// Slow the gossip refresh sweep so the baseline arms cannot paper over
  /// membership faults with brute-force full-cache re-advertisement; the
  /// resilient arm must win through its repair machinery, not luck.
  std::size_t refresh_records = 8;
};

/// Builds the scenario's deterministic fault schedule. Pure function of the
/// config (initial OneHop leaders are computed from the id-space partition,
/// valid because every node is up at t = 0). Nodes 0 and 1 — the pinned
/// endpoints — are never crashed or made inflaters.
fault::FaultPlan make_membership_plan(const MembershipChaosConfig& config);

/// Lowers one scenario x arm cell onto the durability harness. `plan` is
/// the cell's make_membership_plan(config) and must outlive the run.
DurabilityConfig membership_durability_config(
    const MembershipChaosConfig& config, const fault::FaultPlan& plan);

/// Runs one scenario x arm cell through the durability harness and returns
/// its full result (durability, attempts, delivery, plus the observational
/// extras: fault counters, belief accuracy, staleness fallbacks, control-
/// plane stats).
DurabilityResult run_membership_chaos(const MembershipChaosConfig& config);

}  // namespace p2panon::harness
