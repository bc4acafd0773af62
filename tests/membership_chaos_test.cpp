// Control-plane resilience tests (DESIGN §9): bounded-trust merge rules,
// the fault layer's gossip wire mutations cross-checked against the
// membership encoder, anti-entropy convergence after a dissemination
// blackout heals, deterministic leader failover under a churn-invisible
// crash, the staleness-aware mix-selection fallback, and one pinned
// end-to-end membership-chaos run.
#include <gtest/gtest.h>

#include "anon/mix_selector.hpp"
#include "churn/churn_model.hpp"
#include "churn/distributions.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_transport.hpp"
#include "harness/membership_chaos.hpp"
#include "membership/gossip.hpp"
#include "membership/node_cache.hpp"
#include "membership/onehop.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/loopback_transport.hpp"
#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"

namespace p2panon {
namespace {

using membership::LivenessInfo;
using membership::NodeCache;

// --- bounded-trust merge rules ----------------------------------------------------

TEST(BoundedTrustTest, DirectClaimCappedAndSuspicionFiled) {
  NodeCache cache(8);
  cache.enable_suspicion();
  cache.enable_bounded_trust();  // 30 s claim slack, 0.5 suspicion

  // At t = 100 s no node can have been up 500 s; the claim is capped at
  // now + slack and the subject earns suspicion, but stays usable.
  cache.heard_directly(3, 500 * kSecond, 100 * kSecond);
  const auto* entry = cache.find(3);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->alive);
  EXPECT_EQ(entry->dt_alive, 130 * kSecond);
  EXPECT_EQ(cache.merge_stats().inflated_rejected, 1u);
  EXPECT_NEAR(cache.suspicion(3, 100 * kSecond), 0.5, 1e-9);

  // A physically possible claim passes through untouched.
  cache.heard_directly(4, 80 * kSecond, 100 * kSecond);
  EXPECT_EQ(cache.find(4)->dt_alive, 80 * kSecond);
  EXPECT_EQ(cache.merge_stats().inflated_rejected, 1u);
  EXPECT_EQ(cache.suspicion(4, 100 * kSecond), 0.0);
}

TEST(BoundedTrustTest, ImpossibleIndirectClaimRejected) {
  NodeCache cache(8);
  cache.enable_suspicion();
  cache.enable_bounded_trust();

  // 600 s of claimed uptime at t = 60 s is impossible: rejected outright,
  // the node is not even learned, and suspicion is filed on the subject.
  EXPECT_FALSE(cache.merge_indirect(
      5, LivenessInfo{600 * kSecond, 0, true}, 60 * kSecond));
  EXPECT_EQ(cache.find(5), nullptr);
  EXPECT_EQ(cache.merge_stats().inflated_rejected, 1u);
  EXPECT_GT(cache.suspicion(5, 60 * kSecond), 0.0);

  // Dead reports carry dt_alive = 0 semantics and are never "inflated".
  EXPECT_TRUE(cache.merge_indirect(
      6, LivenessInfo{0, 5 * kSecond, false}, 60 * kSecond));
}

TEST(BoundedTrustTest, IndirectCannotOutrankOwnDirectObservation) {
  NodeCache cache(8);
  cache.enable_bounded_trust();  // 30 s claim slack

  // We observed node 2 ourselves: 100 s of uptime at t = 1000 s. Ten
  // seconds later a rumor claims 500 s of uptime — possible on the global
  // clock, but far beyond our own extrapolated observation (100 + 10 + 30):
  // direct outranks indirect, so the rumor is rejected.
  cache.heard_directly(2, 100 * kSecond, 1000 * kSecond);
  EXPECT_FALSE(cache.merge_indirect(
      2, LivenessInfo{500 * kSecond, 0, true}, 1010 * kSecond));
  EXPECT_EQ(cache.find(2)->dt_alive, 100 * kSecond);
  EXPECT_EQ(cache.merge_stats().inflated_rejected, 1u);

  // A consistent fresher rumor (within the extrapolation bound) is still
  // merged by the paper's freshness rule.
  EXPECT_TRUE(cache.merge_indirect(
      2, LivenessInfo{105 * kSecond, 0, true}, 1010 * kSecond));
  EXPECT_EQ(cache.find(2)->dt_alive, 105 * kSecond);
}

TEST(BoundedTrustTest, DisabledKeepsPaperMergeRulesExactly) {
  // Off by default: even an impossible claim is judged by freshness alone,
  // and no inflation accounting runs — the seed's behavior bit-for-bit.
  NodeCache cache(8);
  EXPECT_TRUE(cache.merge_indirect(
      5, LivenessInfo{600 * kSecond, 0, true}, 60 * kSecond));
  EXPECT_EQ(cache.find(5)->dt_alive, 600 * kSecond);
  EXPECT_EQ(cache.merge_stats().inflated_rejected, 0u);
  EXPECT_EQ(cache.suspicion(5, 60 * kSecond), 0.0);
}

TEST(NodeCacheAgeTest, AgeStatsTrackStaleFraction) {
  NodeCache cache(8);
  // Four records at t = 0, two at t = 9 min; at now = 10 min with a 2 min
  // threshold, the four old ones are stale.
  for (NodeId node = 0; node < 4; ++node) {
    cache.heard_directly(node, kMinute, 0);
  }
  for (NodeId node = 4; node < 6; ++node) {
    cache.heard_directly(node, kMinute, 9 * kMinute);
  }
  const auto stats = cache.age_stats(10 * kMinute, 2 * kMinute);
  EXPECT_EQ(stats.alive_known, 6u);
  EXPECT_NEAR(stats.stale_fraction, 4.0 / 6.0, 1e-9);
  EXPECT_EQ(stats.age_p95, 10 * kMinute);
  EXPECT_EQ(stats.age_p50, 10 * kMinute);  // median of {10,10,10,10,1,1} min
}

// --- fault-layer wire mutations vs the membership encoder ------------------------

// The fault layer hard-codes the gossip record layout (it cannot link
// against p2panon_membership); these tests are the cross-check that the
// two encodings agree. A gossip datagram is
//   [channel u8][kind u8][count u16be][21-byte records...]
constexpr std::size_t kWireHeader = 4;

Bytes gossip_datagram(std::uint8_t kind,
                      const std::vector<membership::DecodedRecord>& records) {
  Bytes msg;
  msg.push_back(static_cast<std::uint8_t>(net::Channel::kGossip));
  msg.push_back(kind);
  put_u16be(msg, static_cast<std::uint16_t>(records.size()));
  for (const auto& record : records) {
    membership::encode_record(msg, record.subject, record.info);
  }
  return msg;
}

TEST(GossipWireTest, StaleInjectAgesEveryRecordInFlight) {
  ASSERT_EQ(membership::kRecordWireSize, 21u);
  net::LoopbackTransport loopback(4);
  fault::FaultPlan plan;
  plan.stale_inject(/*probability=*/1.0, /*extra_staleness=*/60 * kSecond, 0,
                    kNeverTime);
  fault::FaultyTransport faulty(loopback, plan, 7);
  Bytes captured;
  loopback.register_handler(1, [&](NodeId, NodeId, ByteView payload) {
    captured.assign(payload.begin(), payload.end());
  });

  const Bytes sent = gossip_datagram(
      /*kind=*/1, {{0, LivenessInfo{300 * kSecond, 5 * kSecond, true}},
                   {9, LivenessInfo{100 * kSecond, 7 * kSecond, true}}});
  faulty.send(0, 1, sent);
  loopback.deliver_all();

  ASSERT_EQ(captured.size(), sent.size());
  std::vector<membership::DecodedRecord> records;
  ASSERT_TRUE(membership::decode_records(captured, kWireHeader, 2, records));
  // dt_since aged by exactly the rule's extra staleness; dt_alive, subject
  // and flags untouched — the fault layer found the right field.
  EXPECT_EQ(records[0].subject, 0u);
  EXPECT_EQ(records[0].info.dt_since, 65 * kSecond);
  EXPECT_EQ(records[0].info.dt_alive, 300 * kSecond);
  EXPECT_EQ(records[1].subject, 9u);
  EXPECT_EQ(records[1].info.dt_since, 67 * kSecond);
  EXPECT_EQ(records[1].info.dt_alive, 100 * kSecond);
  EXPECT_EQ(faulty.counters().stale_injected, 2u);
}

TEST(GossipWireTest, ClaimInflateTouchesOnlySendersOwnRecord) {
  net::LoopbackTransport loopback(4);
  fault::FaultPlan plan;
  plan.claim_inflate(/*probability=*/1.0, /*factor=*/2.0,
                     /*boost=*/10 * kSecond, 0, kNeverTime, {0});
  fault::FaultyTransport faulty(loopback, plan, 7);
  Bytes captured;
  for (NodeId node = 0; node < 4; ++node) {
    loopback.register_handler(node, [&](NodeId, NodeId, ByteView payload) {
      captured.assign(payload.begin(), payload.end());
    });
  }

  // Sender 0's first-person record (record 0, subject == sender) is
  // inflated: dt_alive * 2 + 10 s. The relayed third-party record is not.
  faulty.send(0, 1,
              gossip_datagram(
                  1, {{0, LivenessInfo{300 * kSecond, 0, true}},
                      {9, LivenessInfo{100 * kSecond, 7 * kSecond, true}}}));
  loopback.deliver_all();
  std::vector<membership::DecodedRecord> records;
  ASSERT_TRUE(membership::decode_records(captured, kWireHeader, 2, records));
  EXPECT_EQ(records[0].info.dt_alive, 610 * kSecond);
  EXPECT_EQ(records[0].info.dt_since, 0);
  EXPECT_EQ(records[1].info.dt_alive, 100 * kSecond);

  // Record 0 belonging to someone else: the sender is relaying, not
  // claiming — untouched.
  faulty.send(0, 1,
              gossip_datagram(1, {{5, LivenessInfo{300 * kSecond, 0, true}}}));
  loopback.deliver_all();
  records.clear();
  ASSERT_TRUE(membership::decode_records(captured, kWireHeader, 1, records));
  EXPECT_EQ(records[0].info.dt_alive, 300 * kSecond);

  // A sender outside at_nodes never inflates.
  faulty.send(2, 1,
              gossip_datagram(1, {{2, LivenessInfo{300 * kSecond, 0, true}}}));
  loopback.deliver_all();
  records.clear();
  ASSERT_TRUE(membership::decode_records(captured, kWireHeader, 1, records));
  EXPECT_EQ(records[0].info.dt_alive, 300 * kSecond);
  EXPECT_EQ(faulty.counters().claims_inflated, 1u);
}

TEST(GossipWireTest, DigestShapedMessagesPassMutationUntouched) {
  // Anti-entropy digests carry bucket hashes, not 21-byte records; the
  // structural record-bearing check must leave them alone even under a
  // probability-1 mutation rule.
  net::LoopbackTransport loopback(2);
  fault::FaultPlan plan;
  plan.stale_inject(1.0, 60 * kSecond, 0, kNeverTime);
  fault::FaultyTransport faulty(loopback, plan, 7);
  Bytes captured;
  loopback.register_handler(1, [&](NodeId, NodeId, ByteView payload) {
    captured.assign(payload.begin(), payload.end());
  });

  Bytes digest;
  digest.push_back(static_cast<std::uint8_t>(net::Channel::kGossip));
  digest.push_back(4);  // kKindDigest
  put_u16be(digest, 2);
  put_u64be(digest, 0x1122334455667788ull);
  put_u64be(digest, 0x99aabbccddeeff00ull);
  faulty.send(0, 1, digest);
  loopback.deliver_all();
  EXPECT_EQ(captured, digest);
  EXPECT_EQ(faulty.counters().stale_injected, 0u);
}

// --- anti-entropy convergence after a blackout heals ------------------------------

struct BlackoutFixture {
  static constexpr std::size_t kNodes = 64;

  BlackoutFixture(const membership::GossipConfig& config,
                  const fault::FaultPlan& plan)
      : churn_model(simulator, kNodes, dist, Rng(4), 0.5),
        transport(simulator, latency,
                  [this](NodeId n) { return churn_model.is_up(n); }),
        faulty(transport, plan, 7, &simulator),
        demux(faulty, kNodes),
        gossip(simulator, demux, churn_model, config, Rng(5)) {}

  sim::Simulator simulator;
  net::LatencyMatrix latency = net::LatencyMatrix::synthetic(kNodes, Rng(3));
  churn::ExponentialLifetime dist{600.0};  // 10 min sessions: heavy churn
  churn::ChurnModel churn_model;
  net::SimTransport transport;
  fault::FaultyTransport faulty;
  net::Demux demux;
  membership::GossipMembership gossip;

  double run() {
    gossip.start();
    churn_model.start();
    simulator.run_until(8 * kMinute + 45 * kSecond);
    return gossip.belief_accuracy();
  }
};

TEST(AntiEntropyTest, DigestRepairReconvergesFasterAfterBlackout) {
  // Six minutes of total gossip blackout under heavy churn: every
  // membership event in the window is observed locally but never
  // disseminated, and the rumor forwards that would have carried it are
  // exhausted into dropped datagrams. 45 s after the blackout lifts, the
  // baseline's slowed refresh sweep has barely started healing; digest
  // repair pushes exactly the divergent beliefs and re-converges. The
  // repaired arm runs every gossip recovery layer at once (anti-entropy,
  // per-node RNG streams, bounded trust), and its outcome is pinned.
  fault::FaultPlan plan;
  plan.gossip_blackout(2 * kMinute, 8 * kMinute);

  membership::GossipConfig base;
  base.refresh_records = 2;
  membership::GossipConfig repaired = base;
  repaired.resilient = true;

  BlackoutFixture base_fx(base, plan);
  const double base_accuracy = base_fx.run();
  BlackoutFixture repaired_fx(repaired, plan);
  const double repaired_accuracy = repaired_fx.run();

  const auto control = repaired_fx.gossip.control_stats();
  EXPECT_GT(control.anti_entropy_rounds, 0u);
  EXPECT_GT(control.digests_sent, control.anti_entropy_rounds);
  EXPECT_GT(control.repair_records_sent, 0u);
  EXPECT_GT(control.repair_records_accepted, 0u);
  EXPECT_GT(repaired_accuracy, base_accuracy);
  EXPECT_DOUBLE_EQ(repaired_accuracy, 62.0 / 63.0);
  EXPECT_EQ(control.anti_entropy_rounds, 1238u);
  EXPECT_EQ(control.digests_sent, 1601u);
  EXPECT_EQ(control.repair_records_sent, 6850u);
  EXPECT_EQ(control.repair_records_accepted, 5356u);
  // The blackout actually bit (both arms saw drops)...
  EXPECT_GT(base_fx.faulty.counters().dropped_gossip_blackout, 0u);
  // ...and the baseline arm ran no repair machinery at all.
  EXPECT_EQ(base_fx.gossip.control_stats().anti_entropy_rounds, 0u);
}

// --- deterministic leader failover ----------------------------------------------

struct FailoverFixture {
  static constexpr std::size_t kNodes = 48;

  FailoverFixture(const membership::OneHopConfig& config,
                  const fault::FaultPlan& plan)
      : churn_model(simulator, kNodes, dist, Rng(4), 1.0),
        transport(simulator, latency,
                  [this](NodeId n) { return churn_model.is_up(n); }),
        faulty(transport, plan, 7, &simulator),
        demux(faulty, kNodes),
        onehop(simulator, demux, churn_model, config, Rng(5)) {}

  sim::Simulator simulator;
  net::LatencyMatrix latency = net::LatencyMatrix::synthetic(kNodes, Rng(3));
  churn::ExponentialLifetime dist{1e9};  // stable: only the plan kills nodes
  churn::ChurnModel churn_model;
  net::SimTransport transport;
  fault::FaultyTransport faulty;
  net::Demux demux;
  membership::OneHopMembership onehop;

  void run() {
    onehop.start();
    churn_model.start();
    simulator.run_until(5 * kMinute);
  }
};

TEST(LeaderFailoverTest, ReElectsAroundChurnInvisibleCrash) {
  // Unit 1 is [12, 24) with 4 units over 48 nodes. Crashing node 12 via
  // the fault plan kills every datagram it sends or receives while the
  // churn model still reports it alive — the exact gap ground-truth
  // election cannot see.
  fault::FaultPlan plan;
  plan.crash(12, kMinute);

  membership::OneHopConfig config;
  config.units = 4;
  config.deterministic_failover = true;
  FailoverFixture fx(config, plan);
  fx.run();

  // Ground truth still names the zombie; believed leadership moved on.
  EXPECT_EQ(fx.onehop.unit_leader(1), 12u);
  EXPECT_EQ(fx.onehop.believed_leader(13, 1), 13u);
  const auto control = fx.onehop.control_stats();
  EXPECT_GT(control.elections, 0u);
  EXPECT_GT(control.leader_announcements, 0u);

  // The watchdog verdict disseminated: most of the unit believes 12 dead
  // and agrees on the successor.
  std::size_t believe_dead = 0;
  std::size_t follow_successor = 0;
  for (NodeId member = 13; member < 24; ++member) {
    const auto* entry = fx.onehop.cache(member).find(12);
    if (entry != nullptr && !entry->alive) ++believe_dead;
    if (fx.onehop.believed_leader(member, 1) == 13u) ++follow_successor;
  }
  EXPECT_GT(believe_dead, 8u);
  EXPECT_GT(follow_successor, 8u);

  // Dissemination to the orphaned unit kept flowing: the successor's
  // keepalives refresh its record at the members, so a mid-unit member
  // holds a near-fresh observation of node 13 — not a fossil from t = 0.
  const auto* successor = fx.onehop.cache(18).find(13);
  ASSERT_NE(successor, nullptr);
  EXPECT_TRUE(successor->alive);
  const SimDuration successor_age =
      successor->dt_since + (fx.simulator.now() - successor->t_last);
  EXPECT_LT(successor_age, 30 * kSecond);
}

TEST(LeaderFailoverTest, WithoutFailoverTheZombieKeepsTheRole) {
  // Same crash, failover off (the seed's behavior): nobody ever learns the
  // leader died, so believed leadership never moves and no election runs.
  fault::FaultPlan plan;
  plan.crash(12, kMinute);

  membership::OneHopConfig config;
  config.units = 4;
  FailoverFixture fx(config, plan);
  fx.run();

  EXPECT_EQ(fx.onehop.unit_leader(1), 12u);
  EXPECT_EQ(fx.onehop.believed_leader(13, 1), 12u);
  EXPECT_EQ(fx.onehop.control_stats().elections, 0u);
  const auto* entry = fx.onehop.cache(18).find(12);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->alive);  // the lie the resilient arm corrects
}

// --- staleness-aware mix selection ------------------------------------------------

TEST(StalenessFallbackTest, BiasedSelectionDegradesOnStaleCache) {
  NodeCache cache(20);
  for (NodeId node = 0; node < 18; ++node) {
    cache.heard_directly(node, kMinute, 0);
  }
  anon::StalenessPolicy policy;
  policy.enabled = true;
  policy.stale_after = kMinute;
  policy.degrade_fraction = 0.5;
  anon::MixSelector selector(anon::MixChoice::kBiased, Rng(1), policy);

  // Ten minutes later every record is stale: biased choice admits
  // ignorance and samples uniformly instead of ranking fossils.
  const SimTime stale_now = 10 * kMinute;
  auto paths = selector.select_paths(cache, 2, 3, stale_now, 18, 19);
  ASSERT_TRUE(paths.has_value());
  EXPECT_EQ(selector.biased_selects(), 1u);
  EXPECT_EQ(selector.stale_fallbacks(), 1u);

  // Refresh the cache (anti-entropy's job in a live run): the very next
  // selection is biased again — degradation is per-decision, not latched.
  for (NodeId node = 0; node < 18; ++node) {
    cache.heard_directly(node, kMinute + stale_now, stale_now);
  }
  paths = selector.select_paths(cache, 2, 3, stale_now, 18, 19);
  ASSERT_TRUE(paths.has_value());
  EXPECT_EQ(selector.biased_selects(), 2u);
  EXPECT_EQ(selector.stale_fallbacks(), 1u);
}

TEST(StalenessFallbackTest, ThresholdIsStrictlyGreaterThan) {
  // Exactly degrade_fraction stale must NOT degrade: the fallback fires
  // only when the stale fraction exceeds the knob.
  NodeCache cache(18);
  const SimTime now = 10 * kMinute;
  for (NodeId node = 0; node < 8; ++node) {
    cache.heard_directly(node, kMinute, 0);  // stale half
  }
  for (NodeId node = 8; node < 16; ++node) {
    cache.heard_directly(node, kMinute, now);  // fresh half
  }
  anon::StalenessPolicy policy;
  policy.enabled = true;
  policy.stale_after = kMinute;
  policy.degrade_fraction = 0.5;
  anon::MixSelector selector(anon::MixChoice::kBiased, Rng(1), policy);
  const auto paths = selector.select_paths(cache, 2, 3, now, 16, 17);
  ASSERT_TRUE(paths.has_value());
  EXPECT_EQ(selector.stale_fallbacks(), 0u);
  // Fresh records outrank stale ones under Eq. 3, so the biased pick is
  // drawn from the fresh half.
  for (const auto& path : *paths) {
    for (NodeId relay : path) {
      EXPECT_GE(relay, 8u);
      EXPECT_LT(relay, 16u);
    }
  }
}

TEST(StalenessFallbackTest, DisabledPolicyNeverFallsBack) {
  NodeCache cache(20);
  for (NodeId node = 0; node < 18; ++node) {
    cache.heard_directly(node, kMinute, 0);
  }
  // Default-constructed selector (no policy): even a fully stale cache is
  // ranked — the seed's behavior, byte-identical draws included.
  anon::MixSelector selector(anon::MixChoice::kBiased, Rng(1));
  const auto paths = selector.select_paths(cache, 2, 3, 10 * kMinute, 18, 19);
  ASSERT_TRUE(paths.has_value());
  EXPECT_EQ(selector.biased_selects(), 1u);
  EXPECT_EQ(selector.stale_fallbacks(), 0u);
}

// --- end to end through the durability harness -----------------------------------

// The resilient arm under a gossip blackout runs every control-plane
// defense at once (anti-entropy, bounded trust, per-node RNG, staleness-aware
// selection at its default thresholds). Pin its exact outcome.
TEST(MembershipChaosRunTest, GossipBlackoutResilientArmIsPinned) {
  harness::MembershipChaosConfig config;
  config.scenario = harness::MembershipScenario::kGossipBlackout;
  config.arm = harness::MembershipArm::kResilient;
  const auto result = harness::run_membership_chaos(config);
  ASSERT_TRUE(result.constructed);
  EXPECT_DOUBLE_EQ(result.durability_seconds, 899.469058);
  EXPECT_EQ(result.construct_attempts, 1u);
  EXPECT_EQ(result.messages_delivered, 90u);
  EXPECT_EQ(result.mix_stale_fallbacks, 0u);
  EXPECT_EQ(result.mix_biased_selects, 1u);
}

// The health scoreboard reads leader elections from the membership provider
// itself, so a sampled leader-crash run reports every failover the control
// plane performed.
TEST(MembershipChaosRunTest, SampledLeaderCrashCountsEveryElection) {
  harness::MembershipChaosConfig config;
  config.scenario = harness::MembershipScenario::kLeaderCrash;
  config.arm = harness::MembershipArm::kResilient;
  const fault::FaultPlan plan = harness::make_membership_plan(config);
  harness::DurabilityConfig run =
      harness::membership_durability_config(config, plan);
  run.environment.sampled = true;
  const auto result = harness::run_durability_experiment(run);
  EXPECT_EQ(result.control.elections, 10u);
  EXPECT_EQ(result.health.elections_observed, result.control.elections);
}

}  // namespace
}  // namespace p2panon
