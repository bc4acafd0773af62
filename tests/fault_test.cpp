// Unit tests for the fault-injection layer: FaultPlan rule semantics and
// the FaultyTransport decorator over a LoopbackTransport.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_transport.hpp"
#include "net/demux.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

#include "loopback_transport.hpp"

namespace p2panon::fault {
namespace {

TEST(FaultPlanTest, CrashWindows) {
  FaultPlan plan;
  plan.crash(3, 10 * kSecond, 20 * kSecond).crash(4, 5 * kSecond);
  EXPECT_FALSE(plan.is_crashed(3, 9 * kSecond));
  EXPECT_TRUE(plan.is_crashed(3, 10 * kSecond));
  EXPECT_TRUE(plan.is_crashed(3, 19 * kSecond));
  EXPECT_FALSE(plan.is_crashed(3, 20 * kSecond));  // recovered
  EXPECT_TRUE(plan.is_crashed(4, kNeverTime - 1));  // never recovers
  EXPECT_FALSE(plan.is_crashed(5, 15 * kSecond));
}

// is_crashed looks only at the queried node's windows; it must answer as
// a scan of every window in crashes() would, at every window edge.
TEST(FaultPlanTest, IsCrashedMatchesABruteForceScan) {
  constexpr NodeId kNodes = 24;  // nodes 16..23 never crash
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    FaultPlan plan;
    std::vector<CrashEvent> appended;
    for (int i = 0; i < 64; ++i) {
      const auto node = static_cast<NodeId>(rng.next_below(16));
      const auto at = static_cast<SimTime>(rng.next_below(600)) * kSecond;
      // Overlapping windows on one node, and some that never end.
      const SimTime recover_at =
          rng.bernoulli(0.2)
              ? kNeverTime
              : at + 1 + static_cast<SimTime>(rng.next_below(120 * kSecond));
      plan.crash(node, at, recover_at);
      appended.push_back(CrashEvent{node, at, recover_at});
    }
    ASSERT_EQ(plan.crashes().size(), appended.size());
    for (std::size_t i = 0; i < appended.size(); ++i) {
      EXPECT_EQ(plan.crashes()[i].node, appended[i].node);
      EXPECT_EQ(plan.crashes()[i].at, appended[i].at);
      EXPECT_EQ(plan.crashes()[i].recover_at, appended[i].recover_at);
    }

    std::vector<SimTime> times = {0, kNeverTime - 1};
    for (const CrashEvent& crash : appended) {
      times.insert(times.end(), {crash.at - 1, crash.at, crash.recover_at - 1});
      if (crash.recover_at != kNeverTime) times.push_back(crash.recover_at);
    }
    for (int i = 0; i < 200; ++i) {
      times.push_back(static_cast<SimTime>(rng.next_below(800 * kSecond)));
    }
    for (NodeId node = 0; node < kNodes; ++node) {
      for (const SimTime now : times) {
        bool scanned = false;
        for (const CrashEvent& crash : plan.crashes()) {
          scanned |= crash.node == node && now >= crash.at &&
                     now < crash.recover_at;
        }
        ASSERT_EQ(plan.is_crashed(node, now), scanned)
            << "node " << node << " at " << now;
      }
    }
  }
}

TEST(FaultPlanTest, PartitionSemantics) {
  FaultPlan plan;
  plan.partition({1, 2}, {3}, 0, 10 * kSecond);
  EXPECT_TRUE(plan.partitioned(1, 3, 5 * kSecond));
  EXPECT_TRUE(plan.partitioned(3, 2, 5 * kSecond));  // bidirectional
  EXPECT_FALSE(plan.partitioned(1, 2, 5 * kSecond));  // same side
  EXPECT_FALSE(plan.partitioned(1, 4, 5 * kSecond));  // 4 on neither side
  EXPECT_FALSE(plan.partitioned(1, 3, 10 * kSecond));  // window over

  FaultPlan rest;  // empty side_b = everyone not in side_a
  rest.partition({1}, {}, 0, kNeverTime);
  EXPECT_TRUE(rest.partitioned(1, 7, 0));
  EXPECT_FALSE(rest.partitioned(5, 7, 0));
}

TEST(FaultPlanTest, ValidationRejectsBadRules) {
  FaultPlan plan;
  EXPECT_THROW(plan.crash(1, 10, 10), std::invalid_argument);
  EXPECT_THROW(plan.duplicate(1.5, 0, 1), std::invalid_argument);
  EXPECT_THROW(plan.partition({}, {}, 0, 1), std::invalid_argument);
  EXPECT_THROW(plan.corrupt(-0.1, 0, 1), std::invalid_argument);
}

TEST(FaultyTransportTest, EmptyPlanForwardsUntouched) {
  net::LoopbackTransport loopback(4);
  FaultPlan plan;
  FaultyTransport faulty(loopback, plan, 7);

  Bytes seen;
  loopback.register_handler(1, [&](NodeId, NodeId, ByteView payload) {
    seen.assign(payload.begin(), payload.end());
  });
  const Bytes sent = {0x02, 0xaa, 0xbb};
  faulty.send(0, 1, sent);
  loopback.deliver_all();
  EXPECT_EQ(seen, sent);
  EXPECT_EQ(faulty.counters().total_dropped(), 0u);
  EXPECT_EQ(faulty.messages_sent(), 1u);
}

TEST(FaultyTransportTest, CrashAndPartitionDropWithAttribution) {
  net::LoopbackTransport loopback(4);
  FaultPlan plan;
  plan.crash(2, 0).partition({3}, {}, 0, kNeverTime);
  FaultyTransport faulty(loopback, plan, 7);

  std::size_t delivered = 0;
  for (NodeId node = 0; node < 4; ++node) {
    loopback.register_handler(node,
                              [&](NodeId, NodeId, ByteView) { ++delivered; });
  }
  faulty.send(0, 2, {0x01});  // receiver crashed
  faulty.send(2, 0, {0x01});  // sender crashed
  faulty.send(0, 3, {0x01});  // receiver partitioned off
  faulty.send(0, 1, {0x01});  // clean
  loopback.deliver_all();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(faulty.counters().dropped_crash, 2u);
  EXPECT_EQ(faulty.counters().dropped_partition, 1u);
}

TEST(FaultyTransportTest, CorruptionOnlyTouchesForwardChannel) {
  net::LoopbackTransport loopback(2);
  FaultPlan plan;
  plan.corrupt(1.0, 0, kNeverTime);
  FaultyTransport faulty(loopback, plan, 7);

  std::vector<Bytes> seen;
  loopback.register_handler(1, [&](NodeId, NodeId, ByteView payload) {
    seen.emplace_back(payload.begin(), payload.end());
  });
  const Bytes forward = {
      static_cast<std::uint8_t>(net::Channel::kAnonForward), 0x10, 0x20};
  const Bytes gossip = {0x00, 0x10, 0x20};
  faulty.send(0, 1, forward);
  faulty.send(0, 1, gossip);
  loopback.deliver_all();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_NE(seen[0], forward);           // one byte flipped
  EXPECT_EQ(seen[0][0], forward[0]);     // never the channel id itself
  EXPECT_EQ(seen[1], gossip);            // other channels untouched
  EXPECT_EQ(faulty.counters().corrupted, 1u);
}

TEST(FaultyTransportTest, CorruptionAttributedPerSender) {
  net::LoopbackTransport loopback(4);
  FaultPlan plan;
  plan.corrupt(1.0, 0, kNeverTime, {1, 2});  // only nodes 1 and 2 byzantine
  obs::Registry registry;
  FaultyTransport faulty(loopback, plan, 7, nullptr, &registry);

  for (NodeId node = 0; node < 4; ++node) {
    loopback.register_handler(node, [](NodeId, NodeId, ByteView) {});
  }
  const Bytes forward = {
      static_cast<std::uint8_t>(net::Channel::kAnonForward), 0x10, 0x20};
  faulty.send(1, 3, forward);
  faulty.send(1, 3, forward);
  faulty.send(2, 3, forward);
  faulty.send(0, 3, forward);  // honest sender: untouched
  loopback.deliver_all();

  // Ground truth per corrupting sender, both in the accessor and as
  // fault_corruptions_total{node=...} series in the registry.
  const auto& by_node = faulty.corruptions_by_node();
  ASSERT_EQ(by_node.size(), 2u);
  EXPECT_EQ(by_node.at(1), 2u);
  EXPECT_EQ(by_node.at(2), 1u);
  EXPECT_EQ(registry.counter_value("fault_corruptions_total",
                                   {{"node", "1"}}), 2u);
  EXPECT_EQ(registry.counter_value("fault_corruptions_total",
                                   {{"node", "2"}}), 1u);
  // The honest sender registered no series at all (lazy registration).
  EXPECT_EQ(registry.counter_value("fault_corruptions_total",
                                   {{"node", "0"}}), 0u);
  EXPECT_EQ(faulty.counters().corrupted, 3u);
}

TEST(FaultyTransportTest, DuplicationDeliversTwice) {
  net::LoopbackTransport loopback(2);
  FaultPlan plan;
  plan.duplicate(1.0, 0, kNeverTime);
  FaultyTransport faulty(loopback, plan, 7);

  std::size_t delivered = 0;
  loopback.register_handler(1, [&](NodeId, NodeId, ByteView) { ++delivered; });
  faulty.send(0, 1, {0x01, 0x02});
  loopback.deliver_all();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(faulty.counters().duplicated, 1u);
}

// Records each datagram with the simulator time it reached the transport
// under the decorator.
class ArrivalRecorder final : public net::Transport {
 public:
  explicit ArrivalRecorder(const sim::Simulator& simulator)
      : simulator_(simulator) {}
  void send(NodeId, NodeId, Bytes payload) override {
    arrivals.emplace_back(simulator_.now(), std::move(payload));
  }
  void register_handler(NodeId, Handler) override {}
  std::uint64_t bytes_sent() const override { return 0; }
  std::uint64_t messages_sent() const override { return arrivals.size(); }

  std::vector<std::pair<SimTime, Bytes>> arrivals;

 private:
  const sim::Simulator& simulator_;
};

// A reorder rule holds back a share of the datagrams sent inside its
// window by at most max_extra_delay each, counts every one it holds back,
// and leaves the datagrams outside its window alone.
TEST(FaultyTransportTest, ReorderDelaysStayBoundedAndAreCounted) {
  constexpr SimDuration kMaxExtra = 400 * kMillisecond;
  constexpr SimTime kStart = 10 * kSecond;
  constexpr SimTime kEnd = 30 * kSecond;
  sim::Simulator simulator;
  ArrivalRecorder recorder(simulator);
  FaultPlan plan;
  plan.reorder(0.3, kMaxExtra, kStart, kEnd);
  obs::Registry registry;
  FaultyTransport faulty(recorder, plan, 5, &simulator, &registry);

  // One datagram every 50 ms for 40 s, each carrying its send time.
  std::size_t sent_in_window = 0;
  for (SimTime at = 0; at < 40 * kSecond; at += 50 * kMillisecond) {
    if (at >= kStart && at < kEnd) ++sent_in_window;
    simulator.schedule_at(at, [&faulty, at] {
      Bytes payload(8);
      store_u64be(payload.data(), static_cast<std::uint64_t>(at));
      faulty.send(0, 1, std::move(payload));
    });
  }
  simulator.run();

  std::size_t held_back = 0;
  std::size_t out_of_order = 0;
  SimTime last_sent = -1;
  for (const auto& [arrived, payload] : recorder.arrivals) {
    const auto sent = static_cast<SimTime>(load_u64be(payload.data()));
    const SimDuration extra = arrived - sent;
    EXPECT_GE(extra, 0);
    EXPECT_LE(extra, kMaxExtra);
    if (extra > 0) {
      ++held_back;
      EXPECT_GE(sent, kStart);
      EXPECT_LT(sent, kEnd);
    }
    if (sent < last_sent) ++out_of_order;
    last_sent = std::max(last_sent, sent);
  }
  EXPECT_EQ(recorder.arrivals.size(), 800u);  // nothing lost
  EXPECT_EQ(faulty.counters().delayed, held_back);
  EXPECT_GT(held_back, sent_in_window / 10);
  EXPECT_LT(held_back, sent_in_window);
  EXPECT_GT(out_of_order, 0u);  // reordering, not just latency
  EXPECT_EQ(faulty.counters().total_dropped(), 0u);
}

TEST(FaultyTransportTest, DeterministicAcrossRuns) {
  const auto run = [] {
    net::LoopbackTransport loopback(2);
    FaultPlan plan;
    LinkSpikeRule spike;
    spike.loss_rate = 0.5;
    plan.link_spike(spike);
    FaultyTransport faulty(loopback, plan, 99);
    std::size_t delivered = 0;
    loopback.register_handler(1,
                              [&](NodeId, NodeId, ByteView) { ++delivered; });
    for (int i = 0; i < 200; ++i) faulty.send(0, 1, {0x01});
    loopback.deliver_all();
    return std::make_pair(delivered, faulty.counters().dropped_loss);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.second, 0u);
  EXPECT_GT(first.first, 0u);
}

}  // namespace
}  // namespace p2panon::fault
