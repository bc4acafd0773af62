// Adversary capture layer + offline attack engine (DESIGN §10).
//
// The attack tests run against a hand-built five-node scenario whose
// closed-form outcomes are known exactly: initiator 0, responder 1,
// relays {2, 3}, optional cover sender 4, one onion hop chain
// 0 -> 2 -> 3 -> 1 per trial. Every flow is fed through the LinkObserver
// tap (not appended to the log directly) so origin classification — the
// hold-window heuristic separating initiators from relays — is exercised
// end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "adversary/attacks.hpp"
#include "adversary/link_observer.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace p2panon::adversary {
namespace {

constexpr std::uint8_t kFwd =
    static_cast<std::uint8_t>(net::Channel::kAnonForward);

net::LinkTapMeta fwd_meta(std::uint64_t when_us) {
  net::LinkTapMeta meta;
  meta.when_us = when_us;
  meta.protocol = kFwd;
  return meta;
}

/// One 0 -> 2 -> 3 -> 1 message at base time `t0`, through the tap: the
/// origin send, then each relay hop as deliver + immediate forward send
/// (relays in this codebase forward at the delivery instant), then the
/// responder ingress at t0 + 300.
void emit_chain(LinkObserver& observer, std::uint64_t t0,
                NodeId initiator = 0) {
  observer.on_send(initiator, 2, 512, fwd_meta(t0));
  observer.on_deliver(initiator, 2, 512, fwd_meta(t0 + 100));
  observer.on_send(2, 3, 512, fwd_meta(t0 + 100));
  observer.on_deliver(2, 3, 512, fwd_meta(t0 + 200));
  observer.on_send(3, 1, 512, fwd_meta(t0 + 200));
  observer.on_deliver(3, 1, 512, fwd_meta(t0 + 300));
}

AttackScenario scenario_for(const LinkObserver& observer) {
  AttackScenario s;
  s.log = &observer.log();
  s.initiator = 0;
  s.responder = 1;
  s.num_nodes = 5;
  return s;
}

// --- FlowLog ring ----------------------------------------------------------

TEST(FlowLogTest, RingEvictsOldestAndKeepsAccounting) {
  FlowLog log(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    FlowRecord r;
    r.time_us = 100 * (i + 1);
    r.from = static_cast<NodeId>(i);
    log.append(r);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.appended(), 6u);
  EXPECT_EQ(log.evicted(), 2u);
  // Oldest-first reads start at the third record ever appended.
  EXPECT_EQ(log.at(0).time_us, 300u);
  EXPECT_EQ(log.at(3).time_us, 600u);
  EXPECT_EQ(log.earliest_us(), 300u);
}

TEST(FlowLogTest, JsonlLineIsExact) {
  FlowLog log(8);
  FlowRecord r;
  r.dir = FlowDir::kSend;
  r.from = 4;
  r.to = 9;
  r.bytes = 512;
  r.time_us = 120;
  r.corr = 7;
  r.channel = 2;
  log.append(r);
  EXPECT_EQ(log.to_jsonl(),
            "{\"flow\":\"send\",\"sim_us\":120,\"from\":4,\"to\":9,"
            "\"bytes\":512,\"chan\":2,\"corr\":7}\n");
}

// --- CompromiseModel -------------------------------------------------------

TEST(CompromiseModelTest, PlantsRoundedCountAndHonorsProtection) {
  const auto model = CompromiseModel::plant(100, 0.1, 42, {0, 1});
  EXPECT_EQ(model.count(), 10u);
  EXPECT_EQ(model.honest_count(), 90u);
  EXPECT_FALSE(model.is_compromised(0));
  EXPECT_FALSE(model.is_compromised(1));
  // Out-of-range ids are never compromised.
  EXPECT_FALSE(model.is_compromised(100));
}

TEST(CompromiseModelTest, FullCompromiseIsCappedByEligiblePool) {
  const auto model = CompromiseModel::plant(10, 1.0, 7, {0, 1});
  EXPECT_EQ(model.count(), 8u);  // everyone but the protected endpoints
  EXPECT_THROW(CompromiseModel::plant(10, -0.1, 7), std::invalid_argument);
  EXPECT_THROW(CompromiseModel::plant(10, 1.1, 7), std::invalid_argument);
}

// --- Observer capture ------------------------------------------------------

TEST(LinkObserverTest, ZeroSampleRateRecordsNothing) {
  ObserverConfig config;
  config.sample_rate = 0.0;
  LinkObserver observer(config);
  for (std::uint64_t i = 0; i < 50; ++i) {
    observer.on_send(0, 1, 64, fwd_meta(i));
  }
  EXPECT_EQ(observer.log().size(), 0u);
  EXPECT_EQ(observer.sampled_out(), 50u);
}

TEST(LinkObserverTest, RegistersCountersOnlyWhenRegistryGiven) {
  obs::Registry registry;
  LinkObserver observer({}, &registry);
  observer.on_send(0, 1, 64, fwd_meta(10));
  observer.on_deliver(0, 1, 64, fwd_meta(20));
  EXPECT_EQ(registry.counter_value("adversary_flows_total",
                                   {{"dir", "send"}}), 1u);
  EXPECT_EQ(registry.counter_value("adversary_flows_total",
                                   {{"dir", "deliver"}}), 1u);
  EXPECT_EQ(registry.counter_value("adversary_flow_bytes_total"), 128u);
}

TEST(SimTransportTapTest, MirrorsSendAndDeliverIntoTap) {
  sim::Simulator simulator;
  const auto latency = net::LatencyMatrix::synthetic(3, Rng(5));
  net::SimTransport transport(simulator, latency, [](NodeId) { return true; });
  LinkObserver observer;
  transport.set_tap(&observer);
  std::size_t handled = 0;
  transport.register_handler(1, [&](NodeId, NodeId, const Bytes&) {
    ++handled;
  });
  transport.send(0, 1, Bytes{kFwd, 0xaa, 0xbb});
  simulator.run();
  EXPECT_EQ(handled, 1u);
  ASSERT_EQ(observer.log().size(), 2u);
  EXPECT_EQ(observer.log().at(0).dir, FlowDir::kSend);
  EXPECT_EQ(observer.log().at(1).dir, FlowDir::kDeliver);
  EXPECT_EQ(observer.log().at(0).channel, kFwd);
  EXPECT_EQ(observer.log().at(0).bytes, 3u);
  EXPECT_EQ(observer.log().at(1).from, 0u);
  EXPECT_EQ(observer.log().at(1).to, 1u);
  // Each edge is stamped with simulator time at its tap point.
  EXPECT_EQ(observer.log().at(0).time_us, 0u);
  EXPECT_EQ(observer.log().at(1).time_us,
            static_cast<std::uint64_t>(latency.one_way(0, 1)));
}

// --- Origin classification -------------------------------------------------

TEST(AttackIndexTest, HoldWindowSeparatesOriginsFromRelays) {
  // Node 2 receives at t=1000 and forwards at t=1500 (inside the 1000 us
  // hold window: relay). Node 0 sends cold at t=100 and again at t=5000,
  // 4000 us after the last delivery into it (origin both times).
  LinkObserver observer;
  observer.on_send(0, 2, 512, fwd_meta(100));
  observer.on_deliver(0, 2, 512, fwd_meta(1000));
  observer.on_send(2, 1, 512, fwd_meta(1500));
  observer.on_deliver(2, 1, 512, fwd_meta(1600));
  observer.on_deliver(3, 0, 512, fwd_meta(1000));
  observer.on_send(0, 2, 512, fwd_meta(5000));

  CompromiseModel model;
  model.compromised = {false, false, true, false, false};
  const auto report = predecessor_attack(scenario_for(observer), model,
                                         {{0, 10000}});
  // Both origin sends from 0 went into compromised relay 2; the relay
  // forward from 2 is not an origin and never pollutes the posterior.
  EXPECT_EQ(report.trials, 1u);
  EXPECT_DOUBLE_EQ(report.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(report.compromise_rate, 1.0);
  EXPECT_DOUBLE_EQ(report.anonymity_set_mean, 1.0);
  EXPECT_DOUBLE_EQ(report.posterior_entropy_bits, 0.0);
}

// --- Predecessor attack ----------------------------------------------------

TEST(PredecessorAttackTest, Case1NamesTheInitiatorExactly) {
  LinkObserver observer;
  emit_chain(observer, 1000);
  emit_chain(observer, 20000);
  CompromiseModel model;
  model.compromised = {false, false, true, false, false};  // first relay
  const auto report = predecessor_attack(
      scenario_for(observer), model, {{0, 9999}, {19000, 29999}});
  EXPECT_EQ(report.trials, 2u);
  EXPECT_DOUBLE_EQ(report.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(report.compromise_rate, 1.0);
  EXPECT_DOUBLE_EQ(report.posterior_entropy_bits, 0.0);
}

TEST(PredecessorAttackTest, Case2FallsBackToUniformHonestPool) {
  LinkObserver observer;
  emit_chain(observer, 1000);
  CompromiseModel model;
  // Only the second relay is compromised: it sees relay 2 as its
  // predecessor, never an origin send, so no Case-1 observation exists.
  model.compromised = {false, false, false, true, false};
  const auto report =
      predecessor_attack(scenario_for(observer), model, {{0, 9999}});
  EXPECT_EQ(report.trials, 1u);
  EXPECT_DOUBLE_EQ(report.compromise_rate, 0.0);
  // Uniform over the 4 honest nodes.
  EXPECT_DOUBLE_EQ(report.success_rate, 0.25);
  EXPECT_DOUBLE_EQ(report.anonymity_set_mean, 4.0);
  EXPECT_DOUBLE_EQ(report.posterior_entropy_bits, 2.0);
}

TEST(PredecessorAttackTest, EvictedWindowsAreSkippedNotMisscored) {
  ObserverConfig config;
  config.max_records = 6;  // exactly one chain: the first falls off whole
  LinkObserver observer(config);
  emit_chain(observer, 1000);
  emit_chain(observer, 20000);
  CompromiseModel model;
  model.compromised = {false, false, true, false, false};
  const auto report = predecessor_attack(
      scenario_for(observer), model, {{0, 9999}, {20000, 29999}});
  EXPECT_EQ(report.trials_skipped, 1u);
  EXPECT_EQ(report.trials, 1u);
  EXPECT_DOUBLE_EQ(report.success_rate, 1.0);
}

// --- Intersection attack ---------------------------------------------------

TEST(IntersectionAttackTest, PersistentSenderSurvivesChurnedCover) {
  LinkObserver observer;
  // Window 1: the initiator plus cover sender 4 are active.
  emit_chain(observer, 1000);
  observer.on_send(4, 3, 512, fwd_meta(1500));
  observer.on_deliver(4, 3, 512, fwd_meta(1600));
  // Window 2: the cover sender has churned away; only the initiator.
  emit_chain(observer, 20000);
  const auto report = intersection_attack(scenario_for(observer),
                                          {{0, 9999}, {19000, 29999}});
  EXPECT_EQ(report.trials, 2u);
  EXPECT_DOUBLE_EQ(report.anonymity_set_mean, 1.0);  // {0}
  EXPECT_DOUBLE_EQ(report.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(report.posterior_entropy_bits, 0.0);
}

TEST(IntersectionAttackTest, NoResponderTrafficMeansUniformPrior) {
  LinkObserver observer;
  // Forward traffic exists but never reaches the responder.
  observer.on_send(0, 2, 512, fwd_meta(1000));
  observer.on_deliver(0, 2, 512, fwd_meta(1100));
  const auto report =
      intersection_attack(scenario_for(observer), {{0, 9999}});
  EXPECT_EQ(report.trials, 0u);
  // Uniform over everyone but the responder (4 of 5 nodes).
  EXPECT_DOUBLE_EQ(report.success_rate, 0.25);
  EXPECT_DOUBLE_EQ(report.anonymity_set_mean, 4.0);
}

// --- Timing correlation ----------------------------------------------------

TEST(CorrelationAttackTest, CoverSendsDiluteThePosterior) {
  // Without cover: the only origin send within the lag of the responder
  // ingress is the initiator's — posterior mass 1.0.
  LinkObserver alone;
  emit_chain(alone, 1000);
  const auto clean = correlation_attack(scenario_for(alone), {{0, 9999}},
                                        /*max_lag_us=*/2000);
  EXPECT_EQ(clean.trials, 1u);
  EXPECT_DOUBLE_EQ(clean.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(clean.posterior_entropy_bits, 0.0);

  // With a cover send inside the lag window the posterior splits 50/50.
  LinkObserver covered;
  emit_chain(covered, 1000);
  covered.on_send(4, 2, 512, fwd_meta(900));
  const auto diluted = correlation_attack(scenario_for(covered), {{0, 9999}},
                                          /*max_lag_us=*/2000);
  EXPECT_EQ(diluted.trials, 1u);
  EXPECT_DOUBLE_EQ(diluted.success_rate, 0.5);
  EXPECT_DOUBLE_EQ(diluted.posterior_entropy_bits, 1.0);
  EXPECT_DOUBLE_EQ(diluted.anonymity_set_mean, 2.0);
}

TEST(CorrelationAttackTest, LagTooSmallFallsBackToUniform) {
  LinkObserver observer;
  emit_chain(observer, 1000);  // origin at 1000, ingress at 1300
  const auto report = correlation_attack(scenario_for(observer), {{0, 9999}},
                                         /*max_lag_us=*/100);
  EXPECT_EQ(report.trials, 1u);
  EXPECT_DOUBLE_EQ(report.success_rate, 0.25);  // uniform over 4
  EXPECT_DOUBLE_EQ(report.anonymity_set_mean, 4.0);
}

// --- Entropy helper --------------------------------------------------------

TEST(EntropyTest, MatchesClosedForms) {
  EXPECT_DOUBLE_EQ(entropy_bits({}), 0.0);
  EXPECT_DOUBLE_EQ(entropy_bits({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(entropy_bits({1.0}), 0.0);
  EXPECT_DOUBLE_EQ(entropy_bits({1.0, 1.0}), 1.0);
  EXPECT_NEAR(entropy_bits({1.0, 1.0, 1.0, 1.0}), 2.0, 1e-12);
  // Weights need not be normalized.
  EXPECT_NEAR(entropy_bits({3.0, 1.0}),
              -(0.75 * std::log2(0.75) + 0.25 * std::log2(0.25)), 1e-12);
}

}  // namespace
}  // namespace p2panon::adversary
