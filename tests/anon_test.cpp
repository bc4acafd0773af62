// Tests for path state, mix selection, allocation, and end-to-end routing
// through router + session on a simulated network (real crypto).
#include <gtest/gtest.h>

#include <set>

#include "anon/allocation.hpp"
#include "anon/cover_traffic.hpp"
#include "anon/mix_selector.hpp"
#include "anon/path_state.hpp"
#include "anon/protocols.hpp"
#include "anon/router.hpp"
#include "anon/session.hpp"
#include "anon/wire.hpp"
#include "membership/node_cache.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"

#include "mutations.hpp"

namespace p2panon::anon {
namespace {

// --- path state table -------------------------------------------------------------

TEST(PathStateTest, InstallAndLookupBothDirections) {
  PathStateTable table((Rng(1)));
  RelayEntry entry;
  entry.upstream = 3;
  entry.upstream_sid = 111;
  entry.downstream = 5;
  const StreamId down = table.install(entry, 0, kMinute);
  ASSERT_NE(table.find_by_upstream(111), nullptr);
  ASSERT_NE(table.find_by_downstream(down), nullptr);
  EXPECT_EQ(table.find_by_downstream(down)->upstream_sid, 111u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(PathStateTest, TtlExpiryReclaimsState) {
  PathStateTable table((Rng(2)));
  RelayEntry entry;
  entry.upstream_sid = 1;
  table.install(entry, 0, 10 * kSecond);
  RelayEntry entry2;
  entry2.upstream_sid = 2;
  table.install(entry2, 0, 60 * kSecond);
  EXPECT_EQ(table.expire(30 * kSecond), 1u);
  EXPECT_EQ(table.find_by_upstream(1), nullptr);
  ASSERT_NE(table.find_by_upstream(2), nullptr);
}

TEST(PathStateTest, RefreshExtendsTtl) {
  PathStateTable table((Rng(3)));
  RelayEntry entry;
  entry.upstream_sid = 1;
  table.install(entry, 0, 10 * kSecond);
  RelayEntry* installed = table.find_by_upstream(1);
  table.refresh(*installed, 8 * kSecond, 10 * kSecond);
  EXPECT_EQ(table.expire(15 * kSecond), 0u);  // alive until 18 s
  EXPECT_EQ(table.expire(20 * kSecond), 1u);
}

TEST(PathStateTest, ReleaseRemovesBothIndices) {
  PathStateTable table((Rng(4)));
  RelayEntry entry;
  entry.upstream_sid = 42;
  const StreamId down = table.install(entry, 0, kMinute);
  EXPECT_TRUE(table.release_by_upstream(42));
  EXPECT_EQ(table.find_by_upstream(42), nullptr);
  EXPECT_EQ(table.find_by_downstream(down), nullptr);
  EXPECT_FALSE(table.release_by_upstream(42));
}

TEST(PathStateTest, TerminalEntryHasNoDownstream) {
  PathStateTable table((Rng(5)));
  RelayEntry entry;
  entry.upstream = 9;
  entry.upstream_sid = 7;
  table.install_terminal(entry, 0, kMinute);
  const RelayEntry* installed = table.find_by_upstream(7);
  ASSERT_NE(installed, nullptr);
  EXPECT_TRUE(installed->at_responder);
  EXPECT_EQ(installed->downstream, kInvalidNode);
}

// --- mix selector -------------------------------------------------------------------

TEST(MixSelectorTest, PathsAreNodeDisjoint) {
  membership::NodeCache cache(64);
  for (NodeId node = 0; node < 64; ++node) cache.heard_directly(node, 0, 0);
  MixSelector selector(MixChoice::kRandom, Rng(6));
  const auto paths = selector.select_paths(cache, 4, 3, 0, 0, 1);
  ASSERT_TRUE(paths.has_value());
  std::set<NodeId> seen;
  for (const auto& path : *paths) {
    ASSERT_EQ(path.size(), 3u);
    for (NodeId relay : path) {
      EXPECT_NE(relay, 0u);  // initiator excluded
      EXPECT_NE(relay, 1u);  // responder excluded
      EXPECT_TRUE(seen.insert(relay).second) << "relay reused";
    }
  }
}

TEST(MixSelectorTest, BiasedPicksHighestPredictors) {
  membership::NodeCache cache(16);
  const SimTime now = 1000 * kSecond;
  // Nodes 2..5 have long uptimes; others short.
  for (NodeId node = 2; node < 16; ++node) {
    const SimDuration uptime =
        (node <= 5) ? 900 * kSecond : 5 * kSecond;
    cache.heard_directly(node, uptime, now - 10 * kSecond);
  }
  MixSelector selector(MixChoice::kBiased, Rng(7));
  const auto paths = selector.select_paths(cache, 2, 2, now, 0, 1);
  ASSERT_TRUE(paths.has_value());
  std::set<NodeId> chosen;
  for (const auto& path : *paths) {
    for (NodeId relay : path) chosen.insert(relay);
  }
  EXPECT_EQ(chosen, (std::set<NodeId>{2, 3, 4, 5}));
}

TEST(MixSelectorTest, InsufficientNodesReturnsNullopt) {
  membership::NodeCache cache(4);
  cache.heard_directly(2, 0, 0);
  cache.heard_directly(3, 0, 0);
  MixSelector selector(MixChoice::kRandom, Rng(8));
  EXPECT_FALSE(selector.select_paths(cache, 1, 3, 0, 0, 1).has_value());
}

TEST(MixSelectorTest, ExtraExcludeRespected) {
  membership::NodeCache cache(8);
  for (NodeId node = 0; node < 8; ++node) cache.heard_directly(node, 0, 0);
  MixSelector selector(MixChoice::kRandom, Rng(9));
  const auto paths =
      selector.select_paths(cache, 1, 3, 0, 0, 1, {2, 3, 4});
  ASSERT_TRUE(paths.has_value());
  for (NodeId relay : (*paths)[0]) {
    EXPECT_TRUE(relay >= 5);
  }
}

// --- erasure params & allocation ------------------------------------------------------

TEST(ErasureParamsTest, PaperParameterizations) {
  const auto curmix = ErasureParams::curmix();
  EXPECT_EQ(curmix.k, 1u);
  EXPECT_EQ(curmix.min_paths(), 1u);

  const auto simrep = ErasureParams::simrep(2);
  EXPECT_EQ(simrep.k, 2u);
  EXPECT_EQ(simrep.m, 1u);
  EXPECT_EQ(simrep.min_paths(), 1u);  // any 1 of 2
  EXPECT_DOUBLE_EQ(simrep.replication_factor(), 2.0);

  const auto simera42 = ErasureParams::simera(4, 2);
  EXPECT_EQ(simera42.m, 2u);
  EXPECT_EQ(simera42.n, 4u);
  EXPECT_EQ(simera42.min_paths(), 2u);           // k/r
  EXPECT_EQ(simera42.tolerated_path_failures(), 2u);  // k(1 - 1/r)

  const auto simera44 = ErasureParams::simera(4, 4);
  EXPECT_EQ(simera44.m, 1u);
  EXPECT_EQ(simera44.min_paths(), 1u);
  EXPECT_EQ(simera44.tolerated_path_failures(), 3u);

  EXPECT_THROW(ErasureParams::simera(5, 2), std::invalid_argument);
}

TEST(AllocationTest, EvenIsRoundRobin) {
  ErasureParams params;
  params.m = 2;
  params.n = 8;
  params.k = 4;
  const auto alloc = allocate_even(params);
  ASSERT_EQ(alloc.size(), 8u);
  std::vector<int> per_path(4, 0);
  for (std::size_t s = 0; s < alloc.size(); ++s) {
    EXPECT_EQ(alloc[s], s % 4);
    ++per_path[alloc[s]];
  }
  for (int count : per_path) EXPECT_EQ(count, 2);
}

TEST(AllocationTest, WeightedFavorsStablePathsButCaps) {
  ErasureParams params;
  params.m = 2;
  params.n = 8;
  params.k = 4;
  const auto alloc = allocate_weighted(params, {0.9, 0.9, 0.1, 0.1}, 1);
  std::vector<int> per_path(4, 0);
  for (auto path : alloc) ++per_path[path];
  // Stable paths get more, but never more than n/k + spread = 3.
  EXPECT_GE(per_path[0], 2);
  EXPECT_LE(per_path[0], 3);
  EXPECT_GE(per_path[1], 2);
  EXPECT_EQ(per_path[0] + per_path[1] + per_path[2] + per_path[3], 8);
}

TEST(AllocationTest, WeightedAllZeroScoresFallsBackToEven) {
  ErasureParams params;
  params.m = 2;
  params.n = 8;
  params.k = 4;
  EXPECT_EQ(allocate_weighted(params, {0, 0, 0, 0}),
            allocate_even(params));
  EXPECT_THROW(allocate_weighted(params, {1.0}), std::invalid_argument);
}

TEST(AllocationTest, SegmentsDeliveredCounts) {
  ErasureParams params;
  params.m = 2;
  params.n = 8;
  params.k = 4;
  const auto alloc = allocate_even(params);
  EXPECT_EQ(segments_delivered(alloc, {true, true, true, true}), 8u);
  EXPECT_EQ(segments_delivered(alloc, {true, false, false, false}), 2u);
  EXPECT_EQ(segments_delivered(alloc, {false, false, false, false}), 0u);
}

// --- end-to-end routing fixture ---------------------------------------------------------

// RealOnionCodec that counts payload-core seals and opens, so a test can
// tell a sealed core from a keyed one. Every call passes straight through.
class CountingCodec final : public OnionCodec {
 public:
  Bytes build_path_onion(const std::vector<NodeId>& relays,
                         const std::vector<RelayKey>& relay_keys,
                         NodeId responder,
                         const crypto::KeyDirectory& directory,
                         Rng& rng) const override {
    return real_.build_path_onion(relays, relay_keys, responder, directory,
                                  rng);
  }
  std::optional<PeeledPath> peel_path_onion(const crypto::KeyPair& self,
                                            ByteView onion) const override {
    return real_.peel_path_onion(self, onion);
  }
  Bytes seal_payload_core(const PayloadCore& core,
                          const crypto::X25519Key& responder_public,
                          Rng& rng) const override {
    ++seals;
    return real_.seal_payload_core(core, responder_public, rng);
  }
  std::optional<PayloadCore> open_payload_core(
      const crypto::KeyPair& responder, ByteView sealed) const override {
    ++opens;
    return real_.open_payload_core(responder, sealed);
  }
  Bytes wrap_layer(const RelayKey& key, std::uint64_t seq,
                   ByteView inner) const override {
    return real_.wrap_layer(key, seq, inner);
  }
  std::optional<Bytes> unwrap_layer(const RelayKey& key, std::uint64_t seq,
                                    ByteView outer) const override {
    return real_.unwrap_layer(key, seq, outer);
  }
  void wrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                           Bytes& buf) const override {
    real_.wrap_layer_in_place(key, seq, buf);
  }
  bool unwrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                             Bytes& buf) const override {
    return real_.unwrap_layer_in_place(key, seq, buf);
  }
  std::size_t layer_overhead() const override {
    return real_.layer_overhead();
  }
  std::size_t core_overhead() const override { return real_.core_overhead(); }
  std::string name() const override { return "counting"; }

  mutable std::size_t seals = 0;
  mutable std::size_t opens = 0;

 private:
  RealOnionCodec real_;
};

// Hands every datagram to the simulated network, keeping a copy of the last
// forward-channel frame sent to `watched`, so a test can read the stream id
// a relay used toward that node, and, while `record` is set, of every anon
// frame sent.
class WireSniffer final : public net::Transport {
 public:
  struct Sent {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    bool reverse = false;
    Bytes frame;  // without the channel byte
  };

  explicit WireSniffer(net::Transport& wire) : wire_(wire) {}
  void send(NodeId from, NodeId to, Bytes payload) override {
    const auto channel = payload.empty()
                             ? net::Channel::kGossip
                             : static_cast<net::Channel>(payload[0]);
    const ByteView frame =
        ByteView(payload).subspan(std::min(payload.size(),
                                           net::Demux::kChannelByteSize));
    if (to == watched && channel == net::Channel::kAnonForward) {
      last_forward.assign(frame.begin(), frame.end());
    }
    if (record && (channel == net::Channel::kAnonForward ||
                   channel == net::Channel::kAnonReverse)) {
      sent.push_back({from, to, channel == net::Channel::kAnonReverse,
                      Bytes(frame.begin(), frame.end())});
    }
    wire_.send(from, to, std::move(payload));
  }
  void register_handler(NodeId node, Handler handler) override {
    wire_.register_handler(node, std::move(handler));
  }
  std::uint64_t bytes_sent() const override { return wire_.bytes_sent(); }
  std::uint64_t messages_sent() const override {
    return wire_.messages_sent();
  }

  NodeId watched = kInvalidNode;
  Bytes last_forward;  // without the channel byte
  bool record = false;
  std::vector<Sent> sent;

 private:
  net::Transport& wire_;
};

struct RoutingFixture {
  static constexpr std::size_t kNodes = 24;
  sim::Simulator simulator;
  net::LatencyMatrix latency = net::LatencyMatrix::synthetic(kNodes, Rng(20));
  std::vector<bool> up = std::vector<bool>(kNodes, true);
  net::SimTransport transport{simulator, latency,
                              [this](NodeId n) { return up[n]; }};
  WireSniffer wire{transport};
  net::Demux demux{wire, kNodes};
  crypto::KeyDirectory directory;
  CountingCodec onion;
  std::unique_ptr<AnonRouter> router;
  membership::NodeCache cache{kNodes};
  Rng rng{21};

  explicit RoutingFixture(RouterConfig config = {}) {
    Rng key_rng(22);
    auto keys = directory.provision(kNodes, key_rng);
    router = std::make_unique<AnonRouter>(
        simulator, demux, onion, directory, std::move(keys),
        [this](NodeId n) { return up[n]; }, config, rng.fork());
    router->start();
    for (NodeId node = 0; node < kNodes; ++node) {
      cache.heard_directly(node, 100 * kSecond, 0);
    }
  }

  SessionConfig session_config(const ProtocolSpec& spec) {
    SessionConfig base;
    base.path_length = 3;
    base.construct_timeout = 3 * kSecond;
    base.ack_timeout = 3 * kSecond;
    base.max_construct_attempts = 5;
    return spec.session_config(base);
  }
};

TEST(RouterSessionTest, CurMixDeliversEndToEnd) {
  RoutingFixture fx;
  Session session(*fx.router, fx.cache, 0, 1,
                  fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom)),
                  Rng(23));

  ReceivedMessage received;
  fx.router->set_message_handler(
      [&](const ReceivedMessage& msg) { received = msg; });

  bool constructed = false;
  session.construct([&](bool ok, std::size_t attempts) {
    constructed = ok;
    EXPECT_EQ(attempts, 1u);
  });
  fx.simulator.run_until(10 * kSecond);
  ASSERT_TRUE(constructed);
  ASSERT_TRUE(session.ready());

  const Bytes message = bytes_of("hello through the onion");
  const MessageId id = session.send_message(message);
  ASSERT_NE(id, 0u);
  fx.simulator.run_until(20 * kSecond);

  EXPECT_EQ(received.responder, 1u);
  EXPECT_EQ(received.message_id, id);
  EXPECT_EQ(received.data, message);
  EXPECT_EQ(session.acks_received(), 1u);
  EXPECT_EQ(session.path_failures_detected(), 0u);
}

TEST(RouterSessionTest, SimEraReconstructsFromSegments) {
  RoutingFixture fx;
  Session session(
      *fx.router, fx.cache, 0, 1,
      fx.session_config(ProtocolSpec::simera(4, 2, MixChoice::kRandom)),
      Rng(24));

  ReceivedMessage received;
  fx.router->set_message_handler(
      [&](const ReceivedMessage& msg) { received = msg; });

  bool constructed = false;
  session.construct([&](bool ok, std::size_t) { constructed = ok; });
  fx.simulator.run_until(10 * kSecond);
  ASSERT_TRUE(constructed);
  EXPECT_EQ(session.established_paths(), 4u);

  Bytes message(1024);
  Rng(25).fill(message.data(), message.size());
  const MessageId id = session.send_message(message);
  fx.simulator.run_until(20 * kSecond);

  EXPECT_EQ(received.message_id, id);
  EXPECT_EQ(received.data, message);
  // m = 2 needed, but all 4 arrive.
  EXPECT_GE(received.segments_received, 2u);
  EXPECT_EQ(session.segments_sent(), 4u);
  EXPECT_EQ(session.acks_received(), 4u);
}

TEST(RouterSessionTest, SimEraSurvivesToleratedPathFailures) {
  RoutingFixture fx;
  Session session(
      *fx.router, fx.cache, 0, 1,
      fx.session_config(ProtocolSpec::simera(4, 2, MixChoice::kRandom)),
      Rng(26));

  ReceivedMessage received;
  fx.router->set_message_handler(
      [&](const ReceivedMessage& msg) { received = msg; });

  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(10 * kSecond);
  ASSERT_TRUE(session.ready());

  // Kill the first relay of paths 0 and 1: SimEra(4,2) tolerates
  // k(1 - 1/r) = 2 path failures.
  fx.up[session.paths()[0].relays[0]] = false;
  fx.up[session.paths()[1].relays[0]] = false;

  Bytes message(1024, 0x42);
  const MessageId id = session.send_message(message);
  fx.simulator.run_until(30 * kSecond);

  EXPECT_EQ(received.message_id, id);
  EXPECT_EQ(received.data, message);
  EXPECT_EQ(received.segments_received, 2u);  // exactly m arrived
  EXPECT_EQ(session.path_failures_detected(), 2u);  // timeouts fired
}

TEST(RouterSessionTest, MessageLostWhenTooManyPathsFail) {
  RoutingFixture fx;
  Session session(
      *fx.router, fx.cache, 0, 1,
      fx.session_config(ProtocolSpec::simera(4, 2, MixChoice::kRandom)),
      Rng(27));

  bool delivered = false;
  fx.router->set_message_handler(
      [&](const ReceivedMessage&) { delivered = true; });

  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(10 * kSecond);
  ASSERT_TRUE(session.ready());

  // Kill 3 of 4 paths: only 1 < m = 2 segments can arrive.
  for (int j = 0; j < 3; ++j) {
    fx.up[session.paths()[static_cast<std::size_t>(j)].relays[1]] = false;
  }
  session.send_message(Bytes(1024, 0x43));
  fx.simulator.run_until(30 * kSecond);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(session.path_failures_detected(), 3u);
}

TEST(RouterSessionTest, ConstructionFailsOverDeadRelay) {
  RoutingFixture fx;
  // Kill most nodes so any selected path hits a dead relay.
  for (NodeId node = 2; node < RoutingFixture::kNodes; ++node) {
    fx.up[node] = false;
  }
  SessionConfig config =
      fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom));
  config.max_construct_attempts = 3;
  Session session(*fx.router, fx.cache, 0, 1, config, Rng(28));
  bool result = true;
  std::size_t attempts = 0;
  session.construct([&](bool ok, std::size_t n) {
    result = ok;
    attempts = n;
  });
  fx.simulator.run_until(60 * kSecond);
  EXPECT_FALSE(result);
  EXPECT_EQ(attempts, 3u);
}

TEST(RouterSessionTest, ResponseFlowsBackOverReversePaths) {
  RoutingFixture fx;
  Session session(
      *fx.router, fx.cache, 0, 1,
      fx.session_config(ProtocolSpec::simera(2, 2, MixChoice::kRandom)),
      Rng(29));

  // Responder application: echo a response on reconstruction.
  const Bytes response_body = bytes_of("echo: got your message");
  fx.router->set_message_handler([&](const ReceivedMessage& msg) {
    EXPECT_TRUE(fx.router->send_response(msg.responder, msg.message_id,
                                         response_body));
  });

  Bytes got_response;
  session.set_response_handler(
      [&](MessageId, Bytes data) { got_response = std::move(data); });

  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(10 * kSecond);
  ASSERT_TRUE(session.ready());
  session.send_message(Bytes(256, 0x7e));
  fx.simulator.run_until(30 * kSecond);
  EXPECT_EQ(got_response, response_body);
}

TEST(RouterSessionTest, AutoReconstructRebuildsAndResends) {
  RoutingFixture fx;
  SessionConfig config =
      fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom));
  config.auto_reconstruct = true;
  Session session(*fx.router, fx.cache, 0, 1, config, Rng(30));

  ReceivedMessage received;
  fx.router->set_message_handler(
      [&](const ReceivedMessage& msg) { received = msg; });

  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(10 * kSecond);
  ASSERT_TRUE(session.ready());

  // Kill the whole original path, then send: the ack timeout should
  // trigger a rebuild and a resend that succeeds.
  const auto original_relays = session.paths()[0].relays;
  for (NodeId relay : original_relays) fx.up[relay] = false;

  const Bytes message = bytes_of("must arrive after rebuild");
  const MessageId id = session.send_message(message);
  fx.simulator.run_until(60 * kSecond);

  EXPECT_EQ(received.message_id, id);
  EXPECT_EQ(received.data, message);
  EXPECT_GE(session.paths()[0].rebuilds, 1u);
  EXPECT_NE(session.paths()[0].relays, original_relays);
}

TEST(RouterSessionTest, TeardownReleasesRelayState) {
  RoutingFixture fx;
  Session session(*fx.router, fx.cache, 0, 1,
                  fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom)),
                  Rng(31));
  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(10 * kSecond);
  ASSERT_TRUE(session.ready());
  const auto relays = session.paths()[0].relays;
  for (NodeId relay : relays) {
    EXPECT_EQ(fx.router->path_state_count(relay), 1u);
  }
  session.teardown();
  fx.simulator.run_until(20 * kSecond);
  for (NodeId relay : relays) {
    EXPECT_EQ(fx.router->path_state_count(relay), 0u) << "relay " << relay;
  }
}

TEST(RouterSessionTest, OrphanedStateExpiresViaTtl) {
  RouterConfig config;
  config.state_ttl = 20 * kSecond;
  config.sweep_interval = 5 * kSecond;
  RoutingFixture fx(config);
  Session session(*fx.router, fx.cache, 0, 1,
                  fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom)),
                  Rng(32));
  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(5 * kSecond);
  ASSERT_TRUE(session.ready());
  const auto relays = session.paths()[0].relays;
  // No teardown, no traffic: the state must be reclaimed by TTL (§4.3).
  fx.simulator.run_until(60 * kSecond);
  for (NodeId relay : relays) {
    EXPECT_EQ(fx.router->path_state_count(relay), 0u);
  }
}

TEST(RouterSessionTest, PayloadTrafficRefreshesTtl) {
  RouterConfig config;
  config.state_ttl = 15 * kSecond;
  config.sweep_interval = 5 * kSecond;
  RoutingFixture fx(config);
  Session session(*fx.router, fx.cache, 0, 1,
                  fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom)),
                  Rng(33));
  bool delivered_late = false;
  fx.router->set_message_handler([&](const ReceivedMessage& msg) {
    delivered_late = (msg.reconstructed_at > 50 * kSecond);
  });
  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(3 * kSecond);
  ASSERT_TRUE(session.ready());
  // Send a message every 10 s (inside the 15 s TTL): path must stay alive
  // well past the original TTL.
  for (int i = 0; i < 6; ++i) {
    fx.simulator.schedule_at((10 + 10 * i) * kSecond, [&] {
      session.send_message(bytes_of("refresh"));
    });
  }
  fx.simulator.run_until(75 * kSecond);
  EXPECT_TRUE(delivered_late);
}

TEST(RouterSessionTest, ProactiveReplacementOnLowPredictor) {
  RoutingFixture fx;
  SessionConfig config =
      fx.session_config(ProtocolSpec::curmix(MixChoice::kBiased));
  config.replace_threshold = 0.9;
  config.replace_check_interval = 5 * kSecond;
  Session session(*fx.router, fx.cache, 0, 1, config, Rng(34));
  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(3 * kSecond);
  ASSERT_TRUE(session.ready());
  // Age the cache: predictors decay as (now - t_last) grows, so the
  // periodic check must eventually trigger a replacement.
  fx.simulator.run_until(120 * kSecond);
  EXPECT_GE(session.proactive_replacements(), 1u);
}

TEST(RouterSessionTest, OnDemandCombinedConstructionDelivers) {
  RoutingFixture fx;
  Session session(
      *fx.router, fx.cache, 0, 1,
      fx.session_config(ProtocolSpec::simera(2, 2, MixChoice::kRandom)),
      Rng(39));

  ReceivedMessage received;
  fx.router->set_message_handler(
      [&](const ReceivedMessage& msg) { received = msg; });

  // No construct() round trip: the first message builds the paths itself.
  const Bytes message = bytes_of("formed on demand, no setup delay");
  const MessageId id = session.send_message_on_demand(message);
  ASSERT_NE(id, 0u);
  fx.simulator.run_until(10 * kSecond);

  EXPECT_EQ(received.message_id, id);
  EXPECT_EQ(received.data, message);
  // The acks promoted both paths to established.
  EXPECT_EQ(session.established_paths(), 2u);
  // Subsequent sends reuse the now-cached states as plain payloads.
  session.send_message(bytes_of("second message, plain payload"));
  std::size_t count = 0;
  fx.router->set_message_handler(
      [&](const ReceivedMessage&) { ++count; });
  fx.simulator.run_until(20 * kSecond);
  EXPECT_EQ(count, 1u);
}

TEST(RouterSessionTest, OnDemandRebuildsFailedPathsInline) {
  RoutingFixture fx;
  Session session(*fx.router, fx.cache, 0, 1,
                  fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom)),
                  Rng(40));
  session.construct([&](bool, std::size_t) {});
  fx.simulator.run_until(5 * kSecond);
  ASSERT_TRUE(session.ready());
  const auto original_relays = session.paths()[0].relays;

  // Kill the path, detect via a lost message, then send on demand: the
  // next message should carry a fresh construction and arrive.
  for (NodeId relay : original_relays) fx.up[relay] = false;
  session.send_message(bytes_of("lost"));
  fx.simulator.run_until(15 * kSecond);
  ASSERT_EQ(session.paths()[0].state, PathState::kFailed);

  ReceivedMessage received;
  fx.router->set_message_handler(
      [&](const ReceivedMessage& msg) { received = msg; });
  const MessageId id = session.send_message_on_demand(bytes_of("rerouted"));
  ASSERT_NE(id, 0u);
  fx.simulator.run_until(30 * kSecond);
  EXPECT_EQ(received.message_id, id);
  EXPECT_EQ(string_of(received.data), "rerouted");
  EXPECT_NE(session.paths()[0].relays, original_relays);
  EXPECT_EQ(session.paths()[0].state, PathState::kEstablished);
}

TEST(RouterSessionTest, OnDemandSecondSegmentFollowsConstruction) {
  // SimEra(2, 2) with both paths fresh: each path carries one segment in
  // the combined message. SimEra(4, 2) puts one segment per path too; use
  // an 8-segment config to exercise the follow-the-construction case.
  RoutingFixture fx;
  SessionConfig config =
      fx.session_config(ProtocolSpec::simera(4, 2, MixChoice::kRandom));
  config.erasure.m = 2;
  config.erasure.n = 8;  // two segments per path
  config.erasure.k = 4;
  Session session(*fx.router, fx.cache, 0, 1, config, Rng(41));

  ReceivedMessage received;
  fx.router->set_message_handler(
      [&](const ReceivedMessage& msg) { received = msg; });
  Bytes message(2048);
  Rng(42).fill(message.data(), message.size());
  const MessageId id = session.send_message_on_demand(message);
  ASSERT_NE(id, 0u);
  fx.simulator.run_until(10 * kSecond);
  EXPECT_EQ(received.message_id, id);
  EXPECT_EQ(received.data, message);
  EXPECT_EQ(session.segments_sent(), 8u);
  // Every segment counts toward its slot, the combined ones included: the
  // health scoreboard's stall detector reads these per-slot tallies.
  std::uint64_t slot_sends = 0;
  for (const auto& info : session.paths()) slot_sends += info.sends;
  EXPECT_EQ(slot_sends, session.segments_sent());
}

RouterConfig overload_router(obs::Registry& registry, OverloadPolicy policy) {
  RouterConfig config;
  config.metrics = &registry;
  config.overload = policy;
  return config;
}

// The two payload frame types: a sealed core and a keyed core.
constexpr wire::FrameType kSealedFrame = wire::FrameType::kPayload;
constexpr wire::FrameType kKeyedFrame = wire::FrameType::kPayloadKeyed;

// A payload frame whose body no key opens, with the class byte `cls` when
// given, as a load-tracking overload policy frames it.
Bytes junk_payload_frame(wire::FrameType type, StreamId sid,
                         std::optional<std::uint8_t> cls = std::nullopt) {
  Bytes frame;
  wire::write_header(frame, type, sid, 0, cls);
  frame.resize(frame.size() + 64, 0x5a);
  return frame;
}

// The type and sid of a forward frame the sniffer kept.
wire::Frame header_of(const Bytes& frame) {
  return wire::read_frame(frame, /*reverse=*/false, /*classed=*/false)
      .value_or(wire::Frame{});
}

// Builds a CurMix path, then hands its first relay `fill` interactive
// frames and one `probe` frame, all of frame type `type` and in one instant
// (no drain between them). Returns whether the relay shed the probe.
bool relay_sheds_probe(wire::FrameType type, OverloadPolicy policy,
                       std::size_t fill, SegmentPriority probe) {
  obs::Registry registry;
  RoutingFixture fx(overload_router(registry, policy));
  Session session(*fx.router, fx.cache, 0, 1,
                  fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom)),
                  Rng(47));
  bool constructed = false;
  session.construct([&](bool ok, std::size_t) { constructed = ok; });
  fx.simulator.run_until(10 * kSecond);
  EXPECT_TRUE(constructed);
  const auto& path = session.paths()[0];
  const auto interactive =
      static_cast<std::uint8_t>(SegmentPriority::kInteractive);
  for (std::size_t i = 0; i < fill; ++i) {
    fx.demux.send(net::Channel::kAnonForward, 0, path.relays.front(),
                  junk_payload_frame(type, path.sid, interactive));
  }
  fx.demux.send(net::Channel::kAnonForward, 0, path.relays.front(),
                junk_payload_frame(type, path.sid,
                                   static_cast<std::uint8_t>(probe)));
  fx.simulator.run_until(20 * kSecond);
  const bool shed_probe =
      registry.counter_value("anon_overload_sheds_total",
                             {{"class", segment_priority_name(probe)}}) == 1;
  // Every frame the relay did not shed reached its peel, which fails on
  // the junk body.
  EXPECT_EQ(fx.router->peel_failures(), fill + (shed_probe ? 0 : 1));
  return shed_probe;
}

TEST(RouterSessionTest, ShedThresholdsFollowTheOverloadArm) {
  // kShed's graded thresholds sit at 0.70, 0.85 and 0.97 of the 64-segment
  // queue; kTailDrop sheds every payload class only once the queue is full.
  // Neither policy ever sheds control. Sealed and keyed cores queue alike.
  using P = SegmentPriority;
  const auto shed = OverloadPolicy::kShed;
  const auto drop = OverloadPolicy::kTailDrop;
  const std::pair<P, std::size_t> graded[] = {
      {P::kBulk, 45}, {P::kStreaming, 55}, {P::kInteractive, 63}};
  for (const wire::FrameType type : {kSealedFrame, kKeyedFrame}) {
    SCOPED_TRACE(static_cast<int>(type));
    for (const auto& [probe, shed_from] : graded) {
      EXPECT_FALSE(relay_sheds_probe(type, shed, shed_from - 1, probe))
          << segment_priority_name(probe);
      EXPECT_TRUE(relay_sheds_probe(type, shed, shed_from, probe))
          << segment_priority_name(probe);
    }
    EXPECT_FALSE(relay_sheds_probe(type, shed, 63, P::kControl));
    for (const P probe : {P::kBulk, P::kStreaming, P::kInteractive}) {
      EXPECT_FALSE(relay_sheds_probe(type, drop, 63, probe))
          << segment_priority_name(probe);
      EXPECT_TRUE(relay_sheds_probe(type, drop, 64, probe))
          << segment_priority_name(probe);
    }
    EXPECT_FALSE(relay_sheds_probe(type, drop, 64, P::kControl));
  }
}

TEST(RouterSessionTest, BackpressureFramesCountOnlyUnderShed) {
  // Only kShed relays send backpressure, so under the other policies a
  // frame from a relay is forged. A session that took it would hold the
  // path congested and file its ack timeouts as overload, not as stall
  // evidence against the path's relays.
  for (const OverloadPolicy policy :
       {OverloadPolicy::kOff, OverloadPolicy::kTailDrop,
        OverloadPolicy::kShed}) {
    obs::Registry registry;
    RoutingFixture fx(overload_router(registry, policy));
    Session session(
        *fx.router, fx.cache, 0, 1,
        fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom)), Rng(48));
    bool constructed = false;
    session.construct([&](bool ok, std::size_t) { constructed = ok; });
    fx.simulator.run_until(10 * kSecond);
    ASSERT_TRUE(constructed);

    // A backpressure frame from the first relay to the initiator.
    const auto& path = session.paths()[0];
    Bytes frame;
    wire::write_header(frame, wire::FrameType::kBackpressure, path.sid, 0,
                       std::nullopt);
    frame.push_back(0);
    fx.demux.send(net::Channel::kAnonReverse, path.relays.front(), 0, frame);
    fx.simulator.run_until(20 * kSecond);
    EXPECT_EQ(registry.counter_value("session_backpressure_total",
                                     {{"event", "received"}}),
              policy == OverloadPolicy::kShed ? 1u : 0u)
        << static_cast<int>(policy);
  }
}

TEST(RouterSessionTest, OutOfRangeClassByteIsDroppedNotShedAsControl) {
  // A full tail-drop relay (64 bulk frames in one instant fill its
  // 64-segment queue) sheds every payload class, and it sheds nothing of
  // the control class. A payload frame whose class byte is past kControl,
  // as a byzantine flip can leave it, must be dropped as malformed, not
  // counted as a control shed. Sealed and keyed cores carry the byte alike.
  for (const wire::FrameType type : {kSealedFrame, kKeyedFrame}) {
    SCOPED_TRACE(static_cast<int>(type));
    obs::Registry registry;
    RoutingFixture fx(overload_router(registry, OverloadPolicy::kTailDrop));
    Session session(
        *fx.router, fx.cache, 0, 1,
        fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom)), Rng(46));
    bool constructed = false;
    session.construct([&](bool ok, std::size_t) { constructed = ok; });
    fx.simulator.run_until(10 * kSecond);
    ASSERT_TRUE(constructed);

    const auto& path = session.paths()[0];
    const auto sheds = [&](const char* cls) {
      return registry.counter_value("anon_overload_sheds_total",
                                    {{"class", cls}});
    };
    const NodeId first_relay = path.relays.front();
    const auto bulk = static_cast<std::uint8_t>(SegmentPriority::kBulk);
    for (int i = 0; i < 64; ++i) {
      fx.demux.send(net::Channel::kAnonForward, 0, first_relay,
                    junk_payload_frame(type, path.sid, bulk));
    }
    fx.demux.send(net::Channel::kAnonForward, 0, first_relay,
                  junk_payload_frame(type, path.sid, 7));
    fx.demux.send(net::Channel::kAnonForward, 0, first_relay,
                  junk_payload_frame(type, path.sid, bulk));
    fx.simulator.run_until(20 * kSecond);
    EXPECT_EQ(sheds("bulk"), 1u);  // the relay is saturated
    EXPECT_EQ(sheds("control"), 0u);
  }
}

TEST(RouterSessionTest, PathSealsUntilTheResponderReplies) {
  // Only the first core on the path is sealed. Its ack opens under R_{L+1},
  // which proves the responder's terminal entry holds that key, so the
  // next two cores travel keyed and the responder opens no sealed box.
  RoutingFixture fx;
  Session session(*fx.router, fx.cache, 0, 1,
                  fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom)),
                  Rng(50));
  std::vector<Bytes> delivered;
  fx.router->set_message_handler(
      [&](const ReceivedMessage& msg) { delivered.push_back(msg.data); });
  session.construct([](bool, std::size_t) {});
  fx.simulator.run_until(5 * kSecond);
  ASSERT_TRUE(session.ready());

  const std::vector<Bytes> messages = {bytes_of("first, sealed"),
                                       bytes_of("second, keyed"),
                                       bytes_of("third, keyed")};
  for (std::size_t i = 0; i < messages.size(); ++i) {
    ASSERT_NE(session.send_message(messages[i]), 0u);
    fx.simulator.run_until(static_cast<SimTime>(10 + 5 * i) * kSecond);
  }
  EXPECT_EQ(delivered, messages);
  EXPECT_EQ(fx.onion.seals, 1u);
  EXPECT_EQ(fx.onion.opens, 1u);
  EXPECT_EQ(fx.router->peel_failures(), 0u);
}

TEST(RouterSessionTest, SegmentTimeoutReSealsThePath) {
  RoutingFixture fx;
  SessionConfig config =
      fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom));
  config.adaptive_timeouts = true;
  config.path_fail_threshold = 3;
  Session session(*fx.router, fx.cache, 0, 1, config, Rng(51));
  std::vector<Bytes> delivered;
  fx.router->set_message_handler(
      [&](const ReceivedMessage& msg) { delivered.push_back(msg.data); });
  session.construct([](bool, std::size_t) {});
  fx.simulator.run_until(5 * kSecond);
  ASSERT_TRUE(session.ready());
  session.send_message(bytes_of("sealed, then acked"));
  fx.simulator.run_until(10 * kSecond);
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_EQ(fx.onion.seals, 1u);

  // The path is keyed now. The responder is down when the next core
  // arrives, and back up before that core's timeout fires.
  fx.up[1] = false;
  session.send_message(bytes_of("lost once, resent sealed"));
  const std::uint64_t drops = fx.transport.drops_receiver_dead();
  for (int step = 0; step < 1000; ++step) {
    if (fx.transport.drops_receiver_dead() > drops) break;
    fx.simulator.run_until(fx.simulator.now() + 10 * kMillisecond);
  }
  ASSERT_EQ(fx.transport.drops_receiver_dead(), drops + 1);
  ASSERT_EQ(session.segments_retransmitted(), 0u);
  fx.up[1] = true;

  // One timeout stays below the failure threshold, so the retransmit goes
  // down the same path, sealed again, and is delivered.
  fx.simulator.run_until(20 * kSecond);
  EXPECT_EQ(session.path_failures_detected(), 1u);
  EXPECT_EQ(session.segments_retransmitted(), 1u);
  EXPECT_EQ(session.paths()[0].state, PathState::kEstablished);
  EXPECT_EQ(fx.onion.seals, 2u);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(string_of(delivered[1]), "lost once, resent sealed");

  // The retransmit's ack keys the path again.
  session.send_message(bytes_of("keyed again"));
  fx.simulator.run_until(30 * kSecond);
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(string_of(delivered[2]), "keyed again");
  EXPECT_EQ(fx.onion.seals, 2u);
  EXPECT_EQ(fx.router->peel_failures(), 0u);
}

TEST(RouterSessionTest, KeyedFramesNeedTheTerminalKey) {
  // A keyed core opens only under the key of the responder's terminal
  // entry: on an unknown sid, or with a body that key does not open, the
  // frame is a payload_core peel failure at the responder and delivers
  // nothing.
  RoutingFixture fx;
  fx.wire.watched = 1;
  Session session(*fx.router, fx.cache, 0, 1,
                  fx.session_config(ProtocolSpec::curmix(MixChoice::kRandom)),
                  Rng(52));
  std::size_t delivered = 0;
  fx.router->set_message_handler(
      [&](const ReceivedMessage&) { ++delivered; });
  session.construct([](bool, std::size_t) {});
  fx.simulator.run_until(5 * kSecond);
  ASSERT_TRUE(session.ready());
  session.send_message(bytes_of("installs the terminal entry"));
  fx.simulator.run_until(10 * kSecond);
  ASSERT_EQ(delivered, 1u);

  // The sealed first contact told us the terminal sid.
  ASSERT_EQ(header_of(fx.wire.last_forward).type, kSealedFrame);
  const StreamId terminal_sid = header_of(fx.wire.last_forward).sid;
  const NodeId last_relay = session.paths()[0].relays.back();

  fx.demux.send(net::Channel::kAnonForward, last_relay, 1,
                junk_payload_frame(kKeyedFrame, ~terminal_sid));
  fx.simulator.run_until(15 * kSecond);
  EXPECT_EQ(fx.router->peel_failures(), 1u);
  EXPECT_EQ(delivered, 1u);

  fx.demux.send(net::Channel::kAnonForward, last_relay, 1,
                junk_payload_frame(kKeyedFrame, terminal_sid));
  fx.simulator.run_until(20 * kSecond);
  EXPECT_EQ(fx.router->peel_failures(), 2u);
  EXPECT_EQ(delivered, 1u);

  // The path still delivers, keyed.
  session.send_message(bytes_of("still keyed"));
  fx.simulator.run_until(30 * kSecond);
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(header_of(fx.wire.last_forward).type, kKeyedFrame);
  EXPECT_EQ(fx.onion.seals, 1u);
  EXPECT_EQ(fx.router->peel_failures(), 2u);
}

// --- router frame mutation ------------------------------------------------------

// One valid frame of every type in the wire table, taken off the wire of a
// live network (the backpressure frame is written for a live path), is
// mutated every way (tests/mutations.hpp) and fed through Demux into the
// router, from the sender to the receiver the valid frame had, under each
// overload policy. Nothing may crash or throw (the sanitizers job runs
// this too). RealOnionCodec authenticates every box and layer, so no
// mutant may make a responder reconstruct a message nobody sent.
TEST(RouterFrameMutationTest, EveryFrameTypeSurvivesEveryMutation) {
  for (const OverloadPolicy policy :
       {OverloadPolicy::kOff, OverloadPolicy::kTailDrop,
        OverloadPolicy::kShed}) {
    SCOPED_TRACE(static_cast<int>(policy));
    obs::Registry registry;
    RoutingFixture fx(overload_router(registry, policy));
    std::set<MessageId> sent;
    std::set<MessageId> received;
    fx.router->set_message_handler([&](const ReceivedMessage& msg) {
      received.insert(msg.message_id);
      fx.router->send_response(msg.responder, msg.message_id,
                               bytes_of("reply"));
    });
    const ProtocolSpec curmix = ProtocolSpec::curmix(MixChoice::kRandom);

    // A path that stays up through the mutants: construct, then a sealed
    // and a keyed payload with their acks and responses.
    fx.wire.record = true;
    Session live(*fx.router, fx.cache, 0, 1, fx.session_config(curmix),
                 Rng(70));
    live.construct([](bool, std::size_t) {});
    fx.simulator.run_until(5 * kSecond);
    ASSERT_TRUE(live.ready());
    sent.insert(live.send_message(bytes_of("sealed")));
    fx.simulator.run_until(10 * kSecond);
    sent.insert(live.send_message(bytes_of("keyed")));
    fx.simulator.run_until(15 * kSecond);
    // Construct+payload from a session that builds on demand, and a
    // teardown from a third one.
    Session on_demand(*fx.router, fx.cache, 3, 4, fx.session_config(curmix),
                      Rng(71));
    sent.insert(on_demand.send_message_on_demand(bytes_of("on demand")));
    Session torn(*fx.router, fx.cache, 5, 6, fx.session_config(curmix),
                 Rng(72));
    torn.construct([](bool, std::size_t) {});
    fx.simulator.run_until(25 * kSecond);
    torn.teardown();
    fx.simulator.run_until(30 * kSecond);
    fx.wire.record = false;

    const auto& path = live.paths()[0];
    Bytes backpressure;
    wire::write_header(backpressure, wire::FrameType::kBackpressure,
                       path.sid, 0, std::nullopt);
    backpressure.push_back(0);
    fx.wire.sent.push_back(
        {path.relays.front(), 0, /*reverse=*/true, backpressure});

    // The first frame of each type.
    std::vector<WireSniffer::Sent> first(wire::kFrameTypes);
    const bool classed = policy != OverloadPolicy::kOff;
    for (const WireSniffer::Sent& frame : fx.wire.sent) {
      const auto read = wire::read_frame(frame.frame, frame.reverse, classed);
      ASSERT_TRUE(read.has_value());
      auto& slot = first[static_cast<std::size_t>(read->type)];
      if (slot.frame.empty()) slot = frame;
    }
    std::vector<WireSniffer::Sent> valid;
    for (std::uint8_t type = 0; type < wire::kFrameTypes; ++type) {
      if (wire::is_frame_type(type)) valid.push_back(first[type]);
    }
    ASSERT_EQ(valid.size(), 8u);

    // Type 6 names no frame: on either channel, into a relay that holds
    // the live path's state, it is dropped with no reply and no change to
    // relay state.
    const auto relay_state = [&] {
      std::vector<std::uint64_t> state = {
          fx.router->messages_forwarded(), fx.router->peel_failures(),
          fx.router->construct_bytes(), fx.router->payload_bytes()};
      for (NodeId node = 0; node < RoutingFixture::kNodes; ++node) {
        state.push_back(fx.router->path_state_count(node));
        state.push_back(fx.router->pending_construction_count(node));
        state.push_back(fx.router->reverse_handler_count(node));
        state.push_back(fx.router->reassembly_count(node));
      }
      return state;
    };
    const WireSniffer::Sent& payload =
        first[static_cast<std::size_t>(wire::FrameType::kPayload)];
    Bytes unassigned = payload.frame;
    unassigned[0] = 6;
    const auto before = relay_state();
    const std::uint64_t sent_before = fx.transport.messages_sent();
    for (const bool reverse : {false, true}) {
      EXPECT_FALSE(wire::read_frame(unassigned, reverse, classed));
      fx.demux.send(reverse ? net::Channel::kAnonReverse
                            : net::Channel::kAnonForward,
                    payload.from, payload.to, unassigned);
    }
    EXPECT_NO_THROW(fx.simulator.run_until(fx.simulator.now() + kSecond));
    EXPECT_EQ(relay_state(), before);
    EXPECT_EQ(fx.transport.messages_sent(), sent_before + 2);  // only ours

    std::vector<Bytes> donors;
    for (const auto& frame : valid) {
      ASSERT_FALSE(frame.frame.empty());
      donors.push_back(frame.frame);
    }

    Rng rng(73);
    std::size_t fed = 0;
    for (const auto& frame : valid) {
      const auto channel = frame.reverse ? net::Channel::kAnonReverse
                                         : net::Channel::kAnonForward;
      for (const Bytes& mutant : mutations_of(frame.frame, donors, rng)) {
        fx.demux.send(channel, frame.from, frame.to, mutant);
        ++fed;
      }
      EXPECT_NO_THROW(
          fx.simulator.run_until(fx.simulator.now() + 5 * kSecond));
    }
    EXPECT_GT(fed, 4500u);  // about 595 mutants for each of the 8 types
    EXPECT_EQ(received.size(), 3u);
    for (const MessageId id : received) EXPECT_EQ(sent.count(id), 1u) << id;
  }
}

TEST(RouterSessionTest, SessionDestructionMidFlightIsSafe) {
  RoutingFixture fx;
  {
    Session session(
        *fx.router, fx.cache, 0, 1,
        fx.session_config(ProtocolSpec::simera(4, 2, MixChoice::kRandom)),
        Rng(44));
    session.construct([&](bool, std::size_t) {});
    fx.simulator.run_until(3 * kSecond);
    // Kill a relay and send so ack timeouts are pending, then destroy the
    // session before they fire.
    if (session.ready()) {
      fx.up[session.paths()[0].relays[0]] = false;
      session.send_message(Bytes(512, 0x5d));
    }
  }
  // Timeouts, late acks and reverse deliveries must all be inert now.
  EXPECT_NO_THROW(fx.simulator.run_until(60 * kSecond));
}

TEST(RouterSessionTest, SessionDestructionDuringConstructionIsSafe) {
  RoutingFixture fx;
  {
    Session session(
        *fx.router, fx.cache, 0, 1,
        fx.session_config(ProtocolSpec::simera(4, 4, MixChoice::kRandom)),
        Rng(45));
    session.construct([&](bool, std::size_t) { FAIL() << "must not fire"; });
    // Destroy immediately: construction acks arrive after death.
  }
  EXPECT_NO_THROW(fx.simulator.run_until(60 * kSecond));
}

TEST(RouterSessionTest, ErasureCodingMasksLinkLoss) {
  // The paper's goals cover node AND link failures; erasure coding over
  // disjoint paths also masks i.i.d. packet loss. At 5% datagram loss a
  // 4-hop single path delivers ~0.95^4 = 81% of messages; SimEra(4,2)
  // needs any 2 of 4 segments and delivers ~99%.
  sim::Simulator simulator;
  const auto latency = net::LatencyMatrix::synthetic(24, Rng(46));
  net::LinkFaultConfig faults;
  faults.loss_rate = 0.05;
  net::SimTransport transport(simulator, latency, [](NodeId) { return true; },
                              0, faults);
  net::Demux demux(transport, 24);
  crypto::KeyDirectory directory;
  Rng key_rng(47);
  auto keys = directory.provision(24, key_rng);
  FastOnionCodec onion;
  AnonRouter router(simulator, demux, onion, directory, std::move(keys),
                    [](NodeId) { return true; }, RouterConfig{}, Rng(48));
  router.start();
  membership::NodeCache cache(24);
  for (NodeId node = 0; node < 24; ++node) {
    cache.heard_directly(node, 100 * kSecond, 0);
  }

  auto run_protocol = [&](const ProtocolSpec& spec, NodeId initiator) {
    SessionConfig config = spec.session_config({});
    // Isolate raw delivery: a lost ack would otherwise mark the path
    // failed (§4.5 working as designed) and stop all further sends, which
    // is a different effect than the per-message loss being measured.
    config.ack_timeout = 30 * kMinute;
    Session session(router, cache, initiator, 1, config, Rng(49));
    std::size_t delivered = 0;
    router.set_message_handler([&](const ReceivedMessage& msg) {
      if (msg.responder == 1) ++delivered;
    });
    // Construction under link loss legitimately stops at the >= k/r
    // threshold with a partial path set (the paper's rule); for a clean
    // per-message comparison, insist on the full set by re-running
    // construct() until every path is up.
    for (int round = 0;
         round < 25 && session.established_paths() < config.erasure.k;
         ++round) {
      session.construct([&](bool, std::size_t) {});
      simulator.run_until(simulator.now() + 30 * kSecond);
    }
    if (session.established_paths() < config.erasure.k) return -1.0;
    const std::size_t messages = 80;
    for (std::size_t i = 0; i < messages; ++i) {
      simulator.schedule_after(static_cast<SimDuration>(i) * 5 * kSecond,
                               [&] { session.send_message(Bytes(256, 0x4d)); });
    }
    simulator.run_until(simulator.now() + 500 * kSecond);
    return static_cast<double>(delivered) / static_cast<double>(messages);
  };

  // Retry construction-lost runs with different initiators (link loss can
  // eat the construct handshake too — that is the point of the paper).
  double curmix_rate = -1.0;
  for (NodeId initiator = 0; curmix_rate < 0.0 && initiator < 6;
       initiator += 2) {
    curmix_rate = run_protocol(ProtocolSpec::curmix(MixChoice::kRandom),
                               initiator);
  }
  double simera_rate = -1.0;
  for (NodeId initiator = 0; simera_rate < 0.0 && initiator < 6;
       initiator += 2) {
    simera_rate = run_protocol(ProtocolSpec::simera(4, 2, MixChoice::kRandom),
                               initiator);
  }
  ASSERT_GE(curmix_rate, 0.0);
  ASSERT_GE(simera_rate, 0.0);
  EXPECT_GT(simera_rate, curmix_rate + 0.08)
      << "curmix " << curmix_rate << " vs simera " << simera_rate;
  EXPECT_GT(simera_rate, 0.9);
  EXPECT_LT(curmix_rate, 0.93);  // the single path really does lose messages
}

TEST(CoverTrafficTest, GeneratesIndistinguishableDummies) {
  RoutingFixture fx;
  CoverTrafficConfig cover_config;
  cover_config.interval = 10 * kSecond;
  cover_config.k = 2;
  cover_config.message_size = 256;

  std::size_t reconstructed = 0;
  fx.router->set_message_handler(
      [&](const ReceivedMessage&) { ++reconstructed; });

  CoverTrafficGenerator generator(
      *fx.router, [&](NodeId) -> const membership::NodeCache& { return fx.cache; },
      [&](NodeId n) { return fx.up[n]; }, {0, 1, 2}, cover_config, Rng(35));
  generator.start();
  fx.simulator.run_until(65 * kSecond);
  generator.stop();

  EXPECT_GT(generator.cover_messages_sent(), 5u);
  // Receivers reconstruct dummies like real messages (indistinguishable).
  EXPECT_GT(reconstructed, 0u);
}

}  // namespace
}  // namespace p2panon::anon
