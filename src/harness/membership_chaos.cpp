#include "harness/membership_chaos.hpp"

#include <algorithm>

namespace p2panon::harness {

const char* membership_scenario_name(MembershipScenario scenario) {
  switch (scenario) {
    case MembershipScenario::kGossipBlackout: return "gossip-blackout";
    case MembershipScenario::kLeaderCrash: return "leader-crash";
    case MembershipScenario::kStaleInject: return "stale-inject";
    case MembershipScenario::kClaimInflate: return "claim-inflate";
  }
  return "unknown";
}

const char* membership_arm_name(MembershipArm arm) {
  switch (arm) {
    case MembershipArm::kRandom: return "random";
    case MembershipArm::kBiased: return "biased";
    case MembershipArm::kResilient: return "resilient";
  }
  return "unknown";
}

namespace {

/// Crash targets for the leader-crash scenario: the two lowest ids of each
/// OneHop unit (same ceil-partition as OneHopMembership::unit_of). The
/// election rule is "lowest live id in the unit", so whichever of these is
/// churn-up holds ground-truth leadership — crashing both keeps the unit
/// under a zombie leader for most of the run regardless of churn phase.
std::vector<NodeId> unit_leader_targets(std::size_t num_nodes,
                                        std::size_t units) {
  const std::size_t per_unit = (num_nodes + units - 1) / units;
  std::vector<NodeId> targets;
  for (std::size_t unit = 0; unit < units; ++unit) {
    const std::size_t begin = unit * per_unit;
    const std::size_t end = std::min(num_nodes, begin + per_unit);
    for (std::size_t node = begin; node < end && node < begin + 2; ++node) {
      targets.push_back(static_cast<NodeId>(node));
    }
  }
  return targets;
}

}  // namespace

fault::FaultPlan make_membership_plan(const MembershipChaosConfig& config) {
  fault::FaultPlan plan;
  const SimTime construct = config.warmup;
  const SimTime run_end = config.warmup + config.measure;
  switch (config.scenario) {
    case MembershipScenario::kGossipBlackout:
      // Total dissemination blackout for 8 min, lifted 2 min before the
      // construct moment: the arms differ in how much of the rot they have
      // healed by then.
      plan.gossip_blackout(construct - 10 * kMinute, construct - 2 * kMinute);
      break;
    case MembershipScenario::kLeaderCrash:
      // Permanently crash the leader candidates of every unit except the
      // pinned endpoints, well before construction. Churn never sees these
      // deaths (that is the point), so only believed-leadership failover
      // can restore dissemination to the orphaned units.
      for (NodeId leader :
           unit_leader_targets(config.num_nodes, config.onehop_units)) {
        if (leader == 0 || leader == 1) continue;
        plan.crash(leader, construct - 8 * kMinute);
      }
      break;
    case MembershipScenario::kStaleInject:
      // Age most in-flight records by +10 min from mid-warmup through the
      // whole measurement window: freshness contests break down and caches
      // look ancient even when dissemination flows.
      plan.stale_inject(/*probability=*/0.75,
                        /*extra_staleness=*/10 * kMinute,
                        construct - 6 * kMinute, run_end);
      break;
    case MembershipScenario::kClaimInflate: {
      // Every third node from id 5 up inflates its own uptime claim
      // (3x + 2h) — enough fake seniority to dominate an honest Eq. 3
      // ranking — from mid-warmup onwards.
      std::vector<NodeId> inflaters;
      for (std::size_t node = 5; node < config.num_nodes; node += 3) {
        inflaters.push_back(static_cast<NodeId>(node));
      }
      plan.claim_inflate(/*probability=*/0.8, /*factor=*/3.0,
                         /*boost=*/2 * kHour, construct - 6 * kMinute,
                         run_end, inflaters);
      break;
    }
  }
  return plan;
}

DurabilityResult run_membership_chaos(const MembershipChaosConfig& config) {
  const fault::FaultPlan plan = make_membership_plan(config);
  const bool resilient = config.arm == MembershipArm::kResilient;
  const anon::MixChoice mix = config.arm == MembershipArm::kRandom
                                  ? anon::MixChoice::kRandom
                                  : anon::MixChoice::kBiased;

  DurabilityConfig run;
  run.environment.num_nodes = config.num_nodes;
  run.environment.seed = config.seed;
  run.environment.fault_plan = &plan;
  run.environment.gossip.refresh_records = config.refresh_records;
  run.warmup = config.warmup;
  run.measure = config.measure;
  run.send_interval = config.send_interval;
  run.spec = anon::ProtocolSpec::simera(4, 2, mix);

  if (config.scenario == MembershipScenario::kLeaderCrash) {
    run.environment.membership_kind = MembershipKind::kOneHop;
    run.environment.onehop.units = config.onehop_units;
    if (resilient) {
      run.environment.onehop.deterministic_failover = true;
    }
  } else if (resilient) {
    run.environment.gossip.anti_entropy_interval =
        config.anti_entropy_interval;
    run.environment.gossip.per_node_rng = true;
    run.environment.gossip.bounded_trust = true;
  }
  run.session.staleness_aware = resilient;
  return run_durability_experiment(run);
}

}  // namespace p2panon::harness
