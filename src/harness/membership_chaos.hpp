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
//     resilient         kBiased + staleness-aware selection + the gossip
//                       `resilient` switch (anti-entropy repair, bounded-
//                       trust merging, per-node RNG), or deterministic
//                       leader failover under OneHop.
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

/// One scenario x arm cell. Every cell runs 64 nodes with a 12 min warmup,
/// a 15 min measurement window and one send every 10 s (constants in
/// membership_chaos.cpp).
struct MembershipChaosConfig {
  std::uint64_t seed = 1;
  MembershipScenario scenario = MembershipScenario::kGossipBlackout;
  MembershipArm arm = MembershipArm::kRandom;
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
