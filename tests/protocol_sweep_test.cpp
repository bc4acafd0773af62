// Parameterized end-to-end sweep over protocol configurations: every spec
// must deliver, use exactly its (m, n, k) segment budget, tolerate exactly
// k(1 - 1/r) path failures, and send exactly the wire's payload bytes.
#include <gtest/gtest.h>

#include "analysis/bandwidth_model.hpp"
#include "anon/protocols.hpp"
#include "anon/router.hpp"
#include "anon/session.hpp"
#include "anon/wire.hpp"
#include "membership/node_cache.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"

namespace p2panon::anon {
namespace {

struct SweepCase {
  ProtocolSpec spec;
  std::size_t expected_m;
  std::size_t expected_n;
  std::size_t expected_k;
};

class ProtocolSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  static constexpr std::size_t kNodes = 96;
  sim::Simulator simulator;
  net::LatencyMatrix latency = net::LatencyMatrix::synthetic(kNodes, Rng(60));
  std::vector<bool> up = std::vector<bool>(kNodes, true);
  net::SimTransport transport{simulator, latency,
                              [this](NodeId n) { return up[n]; }};
  net::Demux demux{transport, kNodes};
  crypto::KeyDirectory directory;
  FastOnionCodec onion;  // size-identical to the real codec (tested)
  std::unique_ptr<AnonRouter> router;
  membership::NodeCache cache{kNodes};

  ProtocolSweepTest() {
    Rng key_rng(61);
    auto keys = directory.provision(kNodes, key_rng);
    router = std::make_unique<AnonRouter>(
        simulator, demux, onion, directory, std::move(keys),
        [this](NodeId n) { return up[n]; }, RouterConfig{}, Rng(62));
    router->start();
    for (NodeId node = 0; node < kNodes; ++node) {
      cache.heard_directly(node, 100 * kSecond, 0);
    }
  }
};

TEST_P(ProtocolSweepTest, ParametersLowerCorrectly) {
  const SweepCase& c = GetParam();
  const SessionConfig config = c.spec.session_config({});
  EXPECT_EQ(config.erasure.m, c.expected_m);
  EXPECT_EQ(config.erasure.n, c.expected_n);
  EXPECT_EQ(config.erasure.k, c.expected_k);
  config.erasure.validate();
}

TEST_P(ProtocolSweepTest, DeliversAndCountsSegments) {
  const SweepCase& c = GetParam();
  Session session(*router, cache, 0, 1, c.spec.session_config({}), Rng(63));

  ReceivedMessage received;
  router->set_message_handler(
      [&](const ReceivedMessage& msg) { received = msg; });

  session.construct([&](bool ok, std::size_t) { ASSERT_TRUE(ok); });
  simulator.run_until(10 * kSecond);
  ASSERT_TRUE(session.ready());
  ASSERT_EQ(session.established_paths(), c.expected_k);

  Bytes message(1024);
  Rng(64).fill(message.data(), message.size());
  const MessageId id = session.send_message(message);
  simulator.run_until(30 * kSecond);

  EXPECT_EQ(received.message_id, id);
  EXPECT_EQ(received.data, message);
  EXPECT_EQ(session.segments_sent(), c.expected_n);
  EXPECT_EQ(session.acks_received(), c.expected_n);
}

TEST_P(ProtocolSweepTest, ToleratesExactlyTheAdvertisedFailures) {
  const SweepCase& c = GetParam();
  const SessionConfig config = c.spec.session_config({});
  const std::size_t tolerated = config.erasure.tolerated_path_failures();

  Session session(*router, cache, 0, 1, config, Rng(65));
  std::size_t reconstructions = 0;
  router->set_message_handler(
      [&](const ReceivedMessage&) { ++reconstructions; });
  session.construct([&](bool, std::size_t) {});
  simulator.run_until(10 * kSecond);
  ASSERT_TRUE(session.ready());

  // Kill exactly the tolerated number of paths: still delivers.
  for (std::size_t j = 0; j < tolerated; ++j) {
    up[session.paths()[j].relays[0]] = false;
  }
  session.send_message(Bytes(512, 0x11));
  simulator.run_until(40 * kSecond);
  EXPECT_EQ(reconstructions, 1u) << "with " << tolerated << " paths dead";

  // One more failure: the message must be lost.
  if (tolerated + 1 <= c.expected_k) {
    up[session.paths()[tolerated].relays[0]] = false;
    session.send_message(Bytes(512, 0x22));
    simulator.run_until(80 * kSecond);
    EXPECT_EQ(reconstructions, 1u) << "message should be lost";
  }
}

TEST_P(ProtocolSweepTest, BandwidthTracksAnalyticModel) {
  const SweepCase& c = GetParam();
  const SessionConfig config = c.spec.session_config({});
  Session session(*router, cache, 0, 1, config, Rng(66));
  session.construct([&](bool, std::size_t) {});
  simulator.run_until(10 * kSecond);
  ASSERT_TRUE(session.ready());

  constexpr std::size_t kMessage = 1024;
  const std::uint64_t before = router->payload_bytes();
  session.send_message(Bytes(kMessage, 0x33));
  simulator.run_until(30 * kSecond);
  const std::uint64_t measured = router->payload_bytes() - before;

  // The paper's model counts payload bytes only, so framing, layer tags
  // and the sealed-core overhead put the wire above it.
  analysis::BandwidthModel model;
  model.message_size = kMessage;
  model.path_length = config.path_length;
  const double ideal = model.full_delivery_cost(
      c.expected_k, static_cast<double>(c.expected_n) /
                        static_cast<double>(c.expected_m));
  EXPECT_GE(static_cast<double>(measured), ideal);

  // Exactly: each of the n segments is its path's first core, so sealed,
  // and crosses all L + 1 hops of its path.
  const std::size_t segment =
      router->codec_for(c.expected_m, c.expected_n).segment_size(kMessage);
  const std::size_t sealed_core =
      wire::kCoreHeaderSize + segment + onion.core_overhead();
  EXPECT_EQ(measured, c.expected_n * wire::payload_path_bytes(
                                         sealed_core, config.path_length,
                                         config.path_length + 1));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolSweepTest,
    ::testing::Values(
        SweepCase{ProtocolSpec::curmix(MixChoice::kRandom), 1, 1, 1},
        SweepCase{ProtocolSpec::curmix(MixChoice::kBiased), 1, 1, 1},
        SweepCase{ProtocolSpec::simrep(2, MixChoice::kRandom), 1, 2, 2},
        SweepCase{ProtocolSpec::simrep(3, MixChoice::kBiased), 1, 3, 3},
        SweepCase{ProtocolSpec::simrep(4, MixChoice::kRandom), 1, 4, 4},
        SweepCase{ProtocolSpec::simera(2, 2, MixChoice::kRandom), 1, 2, 2},
        SweepCase{ProtocolSpec::simera(4, 2, MixChoice::kRandom), 2, 4, 4},
        SweepCase{ProtocolSpec::simera(4, 4, MixChoice::kBiased), 1, 4, 4},
        SweepCase{ProtocolSpec::simera(6, 2, MixChoice::kRandom), 3, 6, 6},
        SweepCase{ProtocolSpec::simera(6, 3, MixChoice::kBiased), 2, 6, 6},
        SweepCase{ProtocolSpec::simera(8, 2, MixChoice::kRandom), 4, 8, 8},
        SweepCase{ProtocolSpec::simera(12, 3, MixChoice::kRandom), 4, 12,
                  12}),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      std::string name = param_info.param.spec.name();
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace p2panon::anon
