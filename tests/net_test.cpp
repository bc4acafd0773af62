// Unit tests for the network substrate: latency matrix, transports, demux.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"

#include "loopback_transport.hpp"

namespace p2panon::net {
namespace {

TEST(LatencyMatrixTest, SyntheticCalibratesMeanRtt) {
  const auto matrix =
      LatencyMatrix::synthetic(256, Rng(1), from_millis(152));
  const double mean_ms = to_millis(matrix.mean_rtt());
  EXPECT_NEAR(mean_ms, 152.0, 2.0);
}

TEST(LatencyMatrixTest, SymmetricAndZeroDiagonal) {
  const auto matrix = LatencyMatrix::synthetic(64, Rng(2));
  for (NodeId a = 0; a < 64; ++a) {
    EXPECT_EQ(matrix.one_way(a, a), 0);
    for (NodeId b = 0; b < 64; ++b) {
      EXPECT_EQ(matrix.one_way(a, b), matrix.one_way(b, a));
    }
  }
}

TEST(LatencyMatrixTest, HeterogeneousDelays) {
  const auto matrix = LatencyMatrix::synthetic(64, Rng(3));
  SimDuration lo = kNeverTime, hi = 0;
  for (NodeId a = 0; a < 64; ++a) {
    for (NodeId b = a + 1; b < 64; ++b) {
      lo = std::min(lo, matrix.one_way(a, b));
      hi = std::max(hi, matrix.one_way(a, b));
    }
  }
  EXPECT_GT(hi, 2 * lo);  // real spread, not a constant matrix
}

// Reference: the full N x N table, built from coordinates drawn in node
// order, one raw delay per pair a < b mirrored into both directions, and a
// scale calibrated from their sum, then every cell scaled and truncated.
// Whatever the matrix keeps, its delays and mean RTT must equal this
// table's, bit for bit.
struct ReferenceTable {
  std::vector<SimDuration> delays;  // row-major N x N
  SimDuration mean_rtt = 0;
};

ReferenceTable reference_table(std::size_t n, Rng rng,
                               SimDuration target_mean_rtt) {
  struct Coord {
    double x, y, access;
  };
  std::vector<Coord> coords(n);
  for (auto& c : coords) {
    c.x = rng.next_double();
    c.y = rng.next_double();
    c.access = rng.pareto(2.2, 1.0) - 1.0;
  }
  std::vector<double> raw(n * n, 0.0);
  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double dx = coords[a].x - coords[b].x;
      const double dy = coords[a].y - coords[b].y;
      const double propagation = std::sqrt(dx * dx + dy * dy);
      const double delay =
          propagation + 0.35 * (coords[a].access + coords[b].access);
      raw[a * n + b] = delay;
      raw[b * n + a] = delay;
      sum += 2.0 * delay;
      ++pairs;
    }
  }
  ReferenceTable table;
  table.delays.assign(n * n, 0);
  if (pairs > 0) {
    const double scale = static_cast<double>(target_mean_rtt) /
                         (sum / static_cast<double>(pairs));
    for (std::size_t i = 0; i < raw.size(); ++i) {
      table.delays[i] = static_cast<SimDuration>(raw[i] * scale);
    }
  }
  if (n >= 2) {
    long double rtt_sum = 0.0L;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a != b) {
          rtt_sum += static_cast<long double>(table.delays[a * n + b]) * 2.0L;
        }
      }
    }
    table.mean_rtt = static_cast<SimDuration>(
        rtt_sum / (static_cast<long double>(n) * (n - 1)));
  }
  return table;
}

TEST(LatencyMatrixTest, MatchesTheFullTableReference) {
  for (const std::size_t n : {1, 2, 3, 64, 257}) {
    for (const std::uint64_t seed : {4, 91}) {
      const auto matrix = LatencyMatrix::synthetic(n, Rng(seed));
      const ReferenceTable ref =
          reference_table(n, Rng(seed), from_millis(152));
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = 0; b < n; ++b) {
          ASSERT_EQ(matrix.one_way(a, b), ref.delays[a * n + b])
              << "n=" << n << " seed=" << seed << " a=" << a << " b=" << b;
        }
      }
      EXPECT_EQ(matrix.mean_rtt(), ref.mean_rtt)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(SimTransportTest, DeliversAfterLatency) {
  sim::Simulator simulator;
  const auto matrix = LatencyMatrix::synthetic(4, Rng(5));
  SimTransport transport(simulator, matrix, [](NodeId) { return true; });
  SimTime delivered_at = -1;
  Bytes received;
  transport.register_handler(1, [&](NodeId from, NodeId, const Bytes& data) {
    EXPECT_EQ(from, 0u);
    received = data;
    delivered_at = simulator.now();
  });
  transport.send(0, 1, Bytes{1, 2, 3});
  simulator.run();
  EXPECT_EQ(received, (Bytes{1, 2, 3}));
  EXPECT_EQ(delivered_at, matrix.one_way(0, 1));
  EXPECT_EQ(transport.bytes_sent(), 3u);
  EXPECT_EQ(transport.messages_sent(), 1u);
}

TEST(SimTransportTest, DropsWhenSenderDead) {
  sim::Simulator simulator;
  const auto matrix = LatencyMatrix::synthetic(4, Rng(6));
  bool up0 = false;
  SimTransport transport(simulator, matrix,
                         [&](NodeId node) { return node != 0 || up0; });
  bool delivered = false;
  transport.register_handler(1,
                             [&](NodeId, NodeId, const Bytes&) { delivered = true; });
  transport.send(0, 1, Bytes{9});
  simulator.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(transport.messages_dropped(), 1u);
}

TEST(SimTransportTest, DropsWhenReceiverDiesInFlight) {
  sim::Simulator simulator;
  const auto matrix = LatencyMatrix::synthetic(4, Rng(7));
  bool up1 = true;
  SimTransport transport(simulator, matrix,
                         [&](NodeId node) { return node != 1 || up1; });
  bool delivered = false;
  transport.register_handler(1,
                             [&](NodeId, NodeId, const Bytes&) { delivered = true; });
  transport.send(0, 1, Bytes{9});
  // Receiver dies while the message is in flight.
  simulator.schedule_at(matrix.one_way(0, 1) / 2, [&] { up1 = false; });
  simulator.run();
  EXPECT_FALSE(delivered);
}

TEST(SimTransportTest, LinkLossDropsTheConfiguredFraction) {
  sim::Simulator simulator;
  const auto matrix = LatencyMatrix::synthetic(4, Rng(9));
  LinkFaultConfig faults;
  faults.loss_rate = 0.3;
  SimTransport transport(simulator, matrix, [](NodeId) { return true; }, 0,
                         faults);
  std::size_t delivered = 0;
  transport.register_handler(1,
                             [&](NodeId, NodeId, const Bytes&) { ++delivered; });
  const std::size_t sent = 5000;
  for (std::size_t i = 0; i < sent; ++i) transport.send(0, 1, Bytes{1});
  simulator.run();
  EXPECT_NEAR(static_cast<double>(delivered) / static_cast<double>(sent),
              0.7, 0.03);
  EXPECT_THROW(SimTransport(simulator, matrix, [](NodeId) { return true; },
                            0, LinkFaultConfig{1.5, 0.0, 1}),
               std::invalid_argument);
}

TEST(SimTransportTest, JitterSpreadsDeliveryTimes) {
  sim::Simulator simulator;
  const auto matrix = LatencyMatrix::synthetic(4, Rng(10));
  LinkFaultConfig faults;
  faults.jitter_fraction = 0.5;
  SimTransport transport(simulator, matrix, [](NodeId) { return true; }, 0,
                         faults);
  std::vector<SimTime> arrivals;
  transport.register_handler(1, [&](NodeId, NodeId, const Bytes&) {
    arrivals.push_back(simulator.now());
  });
  const SimTime base = matrix.one_way(0, 1);
  for (int i = 0; i < 200; ++i) transport.send(0, 1, Bytes{1});
  simulator.run();
  ASSERT_EQ(arrivals.size(), 200u);
  SimTime lo = arrivals[0], hi = arrivals[0];
  for (SimTime t : arrivals) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    EXPECT_GE(t, base / 2 - 1);
    EXPECT_LE(t, base + base / 2 + 1);
  }
  EXPECT_GT(hi - lo, base / 2);  // genuine spread, not a constant shift
}

TEST(LoopbackTransportTest, FifoDelivery) {
  LoopbackTransport transport(3);
  std::vector<int> order;
  transport.register_handler(1, [&](NodeId, NodeId, const Bytes& b) {
    order.push_back(b[0]);
  });
  transport.send(0, 1, Bytes{1});
  transport.send(0, 1, Bytes{2});
  EXPECT_EQ(transport.queued(), 2u);
  EXPECT_EQ(transport.deliver_all(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(LoopbackTransportTest, DeadNodesDrop) {
  LoopbackTransport transport(3);
  bool delivered = false;
  transport.register_handler(1,
                             [&](NodeId, NodeId, const Bytes&) { delivered = true; });
  transport.set_up(1, false);
  transport.send(0, 1, Bytes{1});
  transport.deliver_all();
  EXPECT_FALSE(delivered);
  transport.set_up(1, true);
  transport.set_up(0, false);
  transport.send(0, 1, Bytes{1});
  transport.deliver_all();
  EXPECT_FALSE(delivered);
}

TEST(LoopbackTransportTest, CascadedSendsDeliveredInSameDrain) {
  LoopbackTransport transport(3);
  std::vector<NodeId> trace;
  transport.register_handler(1, [&](NodeId, NodeId, const Bytes& b) {
    trace.push_back(1);
    transport.send(1, 2, b);  // forward
  });
  transport.register_handler(2, [&](NodeId, NodeId, const Bytes&) {
    trace.push_back(2);
  });
  transport.send(0, 1, Bytes{7});
  transport.deliver_all();
  EXPECT_EQ(trace, (std::vector<NodeId>{1, 2}));
}

TEST(DemuxTest, RoutesByChannel) {
  LoopbackTransport transport(2);
  Demux demux(transport, 2);
  std::string got;
  demux.set_handler(Channel::kGossip, [&](NodeId, NodeId, ByteView payload) {
    got = "gossip:" + string_of(payload);
  });
  demux.set_handler(Channel::kAnonForward,
                    [&](NodeId, NodeId, ByteView payload) {
                      got = "anon:" + string_of(payload);
                    });
  demux.send(Channel::kGossip, 0, 1, bytes_of("a"));
  transport.deliver_all();
  EXPECT_EQ(got, "gossip:a");
  demux.send(Channel::kAnonForward, 0, 1, bytes_of("b"));
  transport.deliver_all();
  EXPECT_EQ(got, "anon:b");
}

TEST(DemuxTest, UnhandledChannelIgnored) {
  LoopbackTransport transport(2);
  Demux demux(transport, 2);
  demux.send(Channel::kCover, 0, 1, bytes_of("x"));
  EXPECT_NO_THROW(transport.deliver_all());
}

}  // namespace
}  // namespace p2panon::net
