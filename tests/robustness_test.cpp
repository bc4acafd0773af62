// Robustness and adversarial-input tests: junk bytes into every wire
// parser and router handler, replayed and tampered relay traffic, and a
// randomized reference-model check of the event queue.
#include <gtest/gtest.h>

#include <map>

#include "anon/onion.hpp"
#include "anon/protocols.hpp"
#include "anon/router.hpp"
#include "anon/session.hpp"
#include "membership/gossip.hpp"
#include "membership/node_cache.hpp"
#include "membership/record_codec.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/sim_transport.hpp"
#include "harness/environment.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

#include "loopback_transport.hpp"

namespace p2panon {
namespace {

// --- parser fuzzing ---------------------------------------------------------------

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  rng.fill(out.data(), out.size());
  return out;
}

TEST(ParserFuzzTest, PathHopSurvivesJunk) {
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const Bytes junk = random_bytes(rng, 200);
    EXPECT_NO_THROW({ auto r = anon::parse_path_hop(junk); (void)r; });
  }
}

TEST(ParserFuzzTest, PayloadCoreSurvivesJunk) {
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    const Bytes junk = random_bytes(rng, 300);
    EXPECT_NO_THROW({ auto r = anon::parse_payload_core(junk); (void)r; });
  }
}

TEST(ParserFuzzTest, ReverseCoreSurvivesJunk) {
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const Bytes junk = random_bytes(rng, 300);
    EXPECT_NO_THROW({ auto r = anon::parse_reverse_core(junk); (void)r; });
  }
}

TEST(ParserFuzzTest, GossipRecordsSurviveJunk) {
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const Bytes junk = random_bytes(rng, 200);
    EXPECT_NO_THROW(membership::for_each_record(
        junk, 64,
        [](std::size_t, NodeId subject, const membership::LivenessInfo& info) {
          EXPECT_LT(subject, 64u);
          EXPECT_GE(info.dt_alive, 0);
          EXPECT_GE(info.dt_since, 0);
        }));
  }
}

TEST(ParserFuzzTest, BitFlippedValidStructuresParseOrRejectCleanly) {
  // Take valid serialized structures and flip each byte: the parser must
  // either reject or produce a structurally valid result, never crash.
  anon::PayloadCore core;
  core.message_id = 7;
  core.segment = Bytes(64, 0x3c);
  Bytes plain = anon::serialize_payload_core(core);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    Bytes mutated = plain;
    mutated[i] ^= 0xff;
    EXPECT_NO_THROW({ auto r = anon::parse_payload_core(mutated); (void)r; });
  }
}

// --- router under hostile traffic ---------------------------------------------------

struct HostileFixture {
  static constexpr std::size_t kNodes = 16;
  sim::Simulator simulator;
  net::LatencyMatrix latency = net::LatencyMatrix::synthetic(kNodes, Rng(10));
  net::SimTransport transport{simulator, latency, [](NodeId) { return true; }};
  net::Demux demux{transport, kNodes};
  crypto::KeyDirectory directory;
  anon::RealOnionCodec onion;
  std::unique_ptr<anon::AnonRouter> router;
  membership::NodeCache cache{kNodes};
  Rng rng{11};

  HostileFixture() {
    Rng key_rng(12);
    auto keys = directory.provision(kNodes, key_rng);
    router = std::make_unique<anon::AnonRouter>(
        simulator, demux, onion, directory, std::move(keys),
        [](NodeId) { return true; }, anon::RouterConfig{}, rng.fork());
    router->start();
    for (NodeId node = 0; node < kNodes; ++node) {
      cache.heard_directly(node, 100 * kSecond, 0);
    }
  }
};

TEST(HostileTrafficTest, RouterIgnoresGarbageDatagrams) {
  HostileFixture fx;
  Rng rng(13);
  // Blast random bytes at both anon channels from random senders.
  for (int i = 0; i < 2000; ++i) {
    const auto from = static_cast<NodeId>(rng.next_below(16));
    const auto to = static_cast<NodeId>(rng.next_below(16));
    const auto channel = rng.bernoulli(0.5) ? net::Channel::kAnonForward
                                            : net::Channel::kAnonReverse;
    fx.demux.send(channel, from, to, random_bytes(rng, 400));
  }
  // run_until, not run(): the router's TTL sweeper reschedules itself
  // forever, so draining "until idle" never returns.
  EXPECT_NO_THROW(fx.simulator.run_until(fx.simulator.now() + kMinute));
  // And the router still works afterwards.
  anon::SessionConfig config =
      anon::ProtocolSpec::curmix(anon::MixChoice::kRandom).session_config({});
  anon::Session session(*fx.router, fx.cache, 0, 1, config, Rng(14));
  bool delivered = false;
  fx.router->set_message_handler(
      [&](const anon::ReceivedMessage&) { delivered = true; });
  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(fx.simulator.now() + 10 * kSecond);
  session.send_message(bytes_of("still alive"));
  fx.simulator.run_until(fx.simulator.now() + 10 * kSecond);
  EXPECT_TRUE(delivered);
}

// Transport decorator that records every datagram so tests can replay
// captured traffic like an on-path attacker.
class CapturingTransport final : public net::Transport {
 public:
  explicit CapturingTransport(net::Transport& inner) : inner_(inner) {}

  void send(NodeId from, NodeId to, Bytes payload) override {
    captured_.push_back({from, to, payload});
    inner_.send(from, to, std::move(payload));
  }
  void register_handler(NodeId node, Handler handler) override {
    inner_.register_handler(node, std::move(handler));
  }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  std::uint64_t messages_sent() const override {
    return inner_.messages_sent();
  }

  struct Datagram {
    NodeId from;
    NodeId to;
    Bytes payload;
  };
  const std::vector<Datagram>& captured() const { return captured_; }
  void replay(const Datagram& datagram) {
    inner_.send(datagram.from, datagram.to, datagram.payload);
  }

 private:
  net::Transport& inner_;
  std::vector<Datagram> captured_;
};

TEST(HostileTrafficTest, ReplayedSegmentDeliversMessageOnlyOnce) {
  sim::Simulator simulator;
  const auto latency = net::LatencyMatrix::synthetic(16, Rng(30));
  net::SimTransport base(simulator, latency, [](NodeId) { return true; });
  CapturingTransport transport(base);
  net::Demux demux(transport, 16);
  crypto::KeyDirectory directory;
  Rng key_rng(31);
  auto keys = directory.provision(16, key_rng);
  anon::RealOnionCodec onion;
  anon::AnonRouter router(simulator, demux, onion, directory,
                          std::move(keys), [](NodeId) { return true; },
                          anon::RouterConfig{}, Rng(32));
  router.start();
  membership::NodeCache cache(16);
  for (NodeId node = 0; node < 16; ++node) {
    cache.heard_directly(node, 100 * kSecond, 0);
  }

  anon::SessionConfig config =
      anon::ProtocolSpec::curmix(anon::MixChoice::kRandom).session_config({});
  anon::Session session(router, cache, 0, 1, config, Rng(33));

  std::size_t reconstructions = 0;
  router.set_message_handler(
      [&](const anon::ReceivedMessage&) { ++reconstructions; });

  session.construct([&](bool, std::size_t) {});
  simulator.run_until(10 * kSecond);
  ASSERT_TRUE(session.ready());
  const std::size_t before_payload = transport.captured().size();
  session.send_message(bytes_of("replay me"));
  simulator.run_until(20 * kSecond);
  ASSERT_EQ(reconstructions, 1u);

  // Replay every datagram the payload exchange produced, twice.
  const std::vector<CapturingTransport::Datagram> snapshot(
      transport.captured().begin() + static_cast<long>(before_payload),
      transport.captured().end());
  for (int round = 0; round < 2; ++round) {
    for (const auto& datagram : snapshot) transport.replay(datagram);
  }
  simulator.run_until(40 * kSecond);
  // The responder deduplicates by (message id, segment index): the message
  // is reconstructed exactly once no matter how often it is replayed.
  EXPECT_EQ(reconstructions, 1u);
}

TEST(HostileTrafficTest, GossipChannelJunkDoesNotPoisonCaches) {
  sim::Simulator simulator;
  const std::size_t n = 32;
  auto latency = net::LatencyMatrix::synthetic(n, Rng(16));
  churn::ExponentialLifetime dist(1e9);
  churn::ChurnModel churn_model(simulator, n, dist, Rng(17), 1.0);
  net::SimTransport transport(simulator, latency,
                              [&](NodeId id) { return churn_model.is_up(id); });
  net::Demux demux(transport, n);
  membership::GossipMembership gossip(simulator, demux, churn_model,
                                      membership::GossipConfig{}, Rng(18));
  gossip.start();
  churn_model.start();

  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    demux.send(net::Channel::kGossip,
               static_cast<NodeId>(rng.next_below(n)),
               static_cast<NodeId>(rng.next_below(n)),
               random_bytes(rng, 300));
  }
  EXPECT_NO_THROW(simulator.run_until(2 * kMinute));
  // With no churn, everyone should still (correctly) believe everyone is
  // alive; junk must not have marked nodes dead.
  EXPECT_GT(gossip.belief_accuracy(), 0.99);
}

// --- event queue vs reference model ---------------------------------------------------

TEST(EventQueueModelTest, MatchesMultimapReference) {
  sim::EventQueue queue;
  std::multimap<SimTime, int> reference;
  std::map<int, sim::EventId> live_ids;
  std::vector<sim::EventId> dead_ids;  // fired or cancelled
  Rng rng(20);
  int next_tag = 0;
  std::vector<int> popped_queue;
  std::vector<int> popped_reference;

  for (int op = 0; op < 20000; ++op) {
    const auto choice = rng.next_below(100);
    if (choice < 55 || queue.empty()) {
      const auto when = static_cast<SimTime>(rng.next_below(1000));
      const int tag = next_tag++;
      live_ids[tag] = queue.schedule(when, [] {});
      reference.emplace(when, tag);
    } else if (choice < 75 && !live_ids.empty()) {
      // Cancel a random live event.
      auto it = live_ids.begin();
      std::advance(it, static_cast<long>(rng.next_below(live_ids.size())));
      ASSERT_TRUE(queue.cancel(it->second));
      for (auto rit = reference.begin(); rit != reference.end(); ++rit) {
        if (rit->second == it->first) {
          reference.erase(rit);
          break;
        }
      }
      dead_ids.push_back(it->second);
      live_ids.erase(it);
    } else if (choice < 82 && !dead_ids.empty()) {
      // Cancel a fired or already-cancelled event: a no-op, whatever has
      // been scheduled since.
      const sim::EventId id = dead_ids[rng.next_below(dead_ids.size())];
      ASSERT_FALSE(queue.pending(id));
      ASSERT_FALSE(queue.cancel(id));
    } else {
      // Pop: times must match; among equal times the queue pops in
      // schedule order, which the multimap preserves for equal keys.
      const auto ready = queue.pop();
      ASSERT_FALSE(reference.empty());
      ASSERT_EQ(ready.time, reference.begin()->first);
      // Find and erase the matching tag (first inserted at that time).
      const int tag = reference.begin()->second;
      reference.erase(reference.begin());
      ASSERT_EQ(ready.id, live_ids.at(tag));
      dead_ids.push_back(ready.id);
      live_ids.erase(tag);
      popped_queue.push_back(tag);
      popped_reference.push_back(tag);
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
}

// --- whole-environment determinism -----------------------------------------------------

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalSimulations) {
  auto run = [](std::uint64_t seed) {
    harness::EnvironmentConfig config;
    config.num_nodes = 64;
    config.seed = seed;
    harness::Environment env(config);
    env.start();
    env.simulator().run_until(10 * kMinute);
    return std::make_tuple(env.simulator().executed_events(),
                           env.membership().messages_sent(),
                           env.membership().bytes_sent(),
                           env.churn().total_transitions(),
                           env.transport().bytes_sent());
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(std::get<4>(run(77)), std::get<4>(run(78)));
}

// --- self-healing: ack timeout -> failure detection -> rebuild --------------------

TEST(RebuildPathTest, AckTimeoutTriggersRebuildAndResend) {
  constexpr std::size_t kNodes = 16;
  sim::Simulator simulator;
  net::LoopbackTransport transport(kNodes);
  net::Demux demux(transport, kNodes);
  crypto::KeyDirectory directory;
  anon::RealOnionCodec onion;
  Rng key_rng(71);
  auto keys = directory.provision(kNodes, key_rng);
  anon::AnonRouter router(simulator, demux, onion, directory, std::move(keys),
                          [&](NodeId node) { return transport.is_up(node); },
                          anon::RouterConfig{}, Rng(72));
  router.start();
  membership::NodeCache cache(kNodes);
  for (NodeId node = 0; node < kNodes; ++node) {
    cache.heard_directly(node, 100 * kSecond, 0);
  }

  anon::SessionConfig config =
      anon::ProtocolSpec::curmix(anon::MixChoice::kRandom).session_config({});
  config.auto_reconstruct = true;
  anon::Session session(router, cache, 0, 1, config, Rng(73));

  std::size_t failures_seen = 0;
  session.set_path_failure_handler([&](std::size_t) { ++failures_seen; });
  bool delivered = false;
  router.set_message_handler([&](const anon::ReceivedMessage& msg) {
    if (msg.responder == 1) delivered = true;
  });

  // Loopback delivery is manual while simulator timers drive timeouts, so
  // interleave short timer steps with queue drains.
  const auto pump = [&](SimDuration duration) {
    const SimTime deadline = simulator.now() + duration;
    while (simulator.now() < deadline) {
      transport.deliver_all();
      simulator.run_until(
          std::min(deadline, simulator.now() + 100 * kMillisecond));
    }
    transport.deliver_all();
  };

  bool constructed = false;
  session.construct([&](bool ok, std::size_t) { constructed = ok; });
  pump(10 * kSecond);
  ASSERT_TRUE(constructed);
  ASSERT_EQ(session.established_paths(), 1u);

  // Kill a middle relay: the next segment's end-to-end ack cannot return,
  // so the ack timeout must declare the path failed and rebuild it.
  const NodeId victim = session.paths()[0].relays[1];
  transport.set_up(victim, false);
  ASSERT_NE(session.send_message(bytes_of("through a dead relay")), 0u);

  // Long enough for detection (5 s ack timeout) plus rebuild retries that
  // happen to re-pick the dead relay (5 s construct timeout each).
  pump(2 * kMinute);

  EXPECT_GE(session.path_failures_detected(), 1u);
  EXPECT_GE(failures_seen, 1u);
  std::uint64_t rebuilds = 0;
  for (const auto& info : session.paths()) rebuilds += info.rebuilds;
  EXPECT_GE(rebuilds, 1u);
  // The kept segment was resent over the rebuilt path and delivered.
  EXPECT_TRUE(delivered);
  EXPECT_EQ(session.established_paths(), 1u);
}

// --- session recovery flows under churn, pinned to exact ledgers ------------------
//
// No chaos fingerprint covers on-demand construction or proactive
// replacement, so these two runs pin them. Both share one setup: 96 nodes
// at seed 1 under Pareto churn with 10-minute median sessions, nodes 0 and
// 1 pinned up, SimEra(4,2)/biased, and a 1 KB message every 10 s from
// minute 10 to minute 20.

struct ChurnedSessionRun {
  std::uint64_t segments_sent = 0;
  std::uint64_t acks_matched = 0;
  std::uint64_t segments_expired = 0;
  std::uint64_t segments_retransmitted = 0;
  std::size_t pending = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t proactive_replacements = 0;
  std::uint64_t delivered = 0;
};

// With `on_demand` every message goes out through send_message_on_demand
// and nothing is constructed up front; otherwise construct() runs at
// minute 10 and the sends start once it succeeds.
ChurnedSessionRun run_churned_session(const anon::SessionConfig& config,
                                      bool on_demand) {
  harness::EnvironmentConfig env_config;
  env_config.num_nodes = 96;
  env_config.seed = 1;
  env_config.session_distribution = "pareto:median=600";
  harness::Environment env(env_config);
  env.churn().pin_up(0);
  env.churn().pin_up(1);
  anon::Session session(env.router(), env.membership().cache(0), 0, 1,
                        config, Rng(131));

  ChurnedSessionRun run;
  env.router().set_message_handler([&](const anon::ReceivedMessage& msg) {
    if (msg.responder == 1) ++run.delivered;
  });
  const Bytes payload(1024, 0x5a);
  std::function<void()> send_one;
  send_one = [&] {
    if (env.simulator().now() > 20 * kMinute) return;
    if (on_demand) {
      session.send_message_on_demand(payload);
    } else {
      session.send_message(payload);
    }
    env.simulator().schedule_after(10 * kSecond, send_one);
  };
  env.simulator().schedule_at(10 * kMinute, [&] {
    if (on_demand) {
      send_one();
    } else {
      session.construct([&](bool ok, std::size_t) {
        if (ok) send_one();
      });
    }
  });
  env.start();
  env.simulator().run_until(20 * kMinute + 30 * kSecond);

  run.segments_sent = session.segments_sent();
  run.acks_matched = session.acks_matched();
  run.segments_expired = session.segments_expired();
  run.segments_retransmitted = session.segments_retransmitted();
  run.pending = session.pending_segment_count();
  for (const auto& info : session.paths()) run.rebuilds += info.rebuilds;
  run.proactive_replacements = session.proactive_replacements();
  return run;
}

anon::SessionConfig churned_session_config() {
  return anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kBiased)
      .session_config({});
}

TEST(SessionFlowPinTest, OnDemandReprovisionsExpiredSlots) {
  // Expired segments fail their slots, so later sends provision them
  // again through the combined construct + payload message.
  const auto run = run_churned_session(churned_session_config(),
                                       /*on_demand=*/true);
  EXPECT_EQ(run.segments_sent, 244u);
  EXPECT_EQ(run.acks_matched, 239u);
  EXPECT_EQ(run.segments_expired, 5u);
  EXPECT_EQ(run.segments_retransmitted, 0u);
  EXPECT_EQ(run.pending, 0u);
  EXPECT_EQ(run.delivered, 61u);
}

TEST(SessionFlowPinTest, ProactiveReplacementRebuildsWeakPaths) {
  // Ack-timeout rebuilds resend their kept segments, and the predictor
  // check replaces one weak path.
  anon::SessionConfig config = churned_session_config();
  config.auto_reconstruct = true;
  config.replace_threshold = 0.3;
  config.replace_check_interval = 20 * kSecond;
  const auto run = run_churned_session(config, /*on_demand=*/false);
  EXPECT_EQ(run.segments_sent, 245u);
  EXPECT_EQ(run.acks_matched, 239u);
  EXPECT_EQ(run.segments_expired, 0u);
  EXPECT_EQ(run.segments_retransmitted, 6u);
  EXPECT_EQ(run.pending, 0u);
  EXPECT_EQ(run.rebuilds, 8u);
  EXPECT_EQ(run.proactive_replacements, 1u);
  EXPECT_EQ(run.delivered, 60u);
}

}  // namespace
}  // namespace p2panon
