// Substrate independence: the full anonymity protocol running over the
// in-process LoopbackTransport instead of the simulated network. Message
// delivery is pumped manually; the simulator only serves the router's
// timers. This is the configuration an embedding application would use
// for in-process testing.
#include <gtest/gtest.h>

#include "anon/protocols.hpp"
#include "anon/router.hpp"
#include "anon/session.hpp"
#include "membership/node_cache.hpp"
#include "net/demux.hpp"
#include "sim/simulator.hpp"

#include "loopback_transport.hpp"

namespace p2panon::anon {
namespace {

struct LoopbackFixture {
  static constexpr std::size_t kNodes = 16;
  sim::Simulator simulator;  // timers only; transport is not simulated
  net::LoopbackTransport transport{kNodes};
  net::Demux demux{transport, kNodes};
  crypto::KeyDirectory directory;
  RealOnionCodec onion;
  std::unique_ptr<AnonRouter> router;
  membership::NodeCache cache{kNodes};

  LoopbackFixture() {
    Rng key_rng(80);
    auto keys = directory.provision(kNodes, key_rng);
    router = std::make_unique<AnonRouter>(
        simulator, demux, onion, directory, std::move(keys),
        [this](NodeId n) { return transport.is_up(n); },
        RouterConfig{}, Rng(81));
    router->start();
    for (NodeId node = 0; node < kNodes; ++node) {
      cache.heard_directly(node, 100 * kSecond, 0);
    }
  }

  /// Pumps queued datagrams and due timers until both are idle.
  void pump() {
    for (int round = 0; round < 64; ++round) {
      const std::size_t delivered = transport.deliver_all();
      if (delivered == 0) break;
    }
  }
};

TEST(LoopbackIntegrationTest, ConstructAndDeliverWithoutSimulatedNetwork) {
  LoopbackFixture fx;
  SessionConfig config =
      ProtocolSpec::simera(2, 2, MixChoice::kRandom).session_config({});
  Session session(*fx.router, fx.cache, 0, 1, config, Rng(82));

  ReceivedMessage received;
  fx.router->set_message_handler(
      [&](const ReceivedMessage& msg) { received = msg; });

  bool constructed = false;
  session.construct([&](bool ok, std::size_t) { constructed = ok; });
  fx.pump();  // all construction round trips happen synchronously
  ASSERT_TRUE(constructed);
  ASSERT_TRUE(session.ready());

  const Bytes message = bytes_of("loopback onion routing");
  const MessageId id = session.send_message(message);
  fx.pump();
  EXPECT_EQ(received.message_id, id);
  EXPECT_EQ(received.data, message);
  EXPECT_EQ(session.acks_received(), 2u);
}

TEST(LoopbackIntegrationTest, FailureInjectionViaNodeDown) {
  LoopbackFixture fx;
  SessionConfig config =
      ProtocolSpec::curmix(MixChoice::kRandom).session_config({});
  Session session(*fx.router, fx.cache, 0, 1, config, Rng(83));
  session.construct([&](bool, std::size_t) {});
  fx.pump();
  ASSERT_TRUE(session.ready());

  fx.transport.set_up(session.paths()[0].relays[1], false);
  bool delivered = false;
  fx.router->set_message_handler(
      [&](const ReceivedMessage&) { delivered = true; });
  session.send_message(bytes_of("into the void"));
  fx.pump();
  EXPECT_FALSE(delivered);
  // The ack timeout lives on the simulator clock; advancing it fires the
  // failure detection even though no network time passed.
  fx.simulator.run_until(fx.simulator.now() + 10 * kSecond);
  EXPECT_EQ(session.path_failures_detected(), 1u);
  EXPECT_EQ(session.paths()[0].state, PathState::kFailed);
}

}  // namespace
}  // namespace p2panon::anon
