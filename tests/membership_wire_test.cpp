// Membership wire and cache pins. Each seeded run hashes every
// gossip-channel datagram it hands to the wire (SHA-256, in send order) and
// then every cache's final observation() and predictor() of every subject.
// A change to the liveness-record codec, the merge rules or the cache
// layout that moves one wire byte, one RNG draw or one merge verdict moves a
// digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "churn/churn_model.hpp"
#include "churn/distributions.hpp"
#include "crypto/sha256.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_transport.hpp"
#include "membership/gossip.hpp"
#include "membership/onehop.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/liveness_wire.hpp"
#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"

#include "byte_helpers.hpp"
#include "mutations.hpp"

namespace p2panon {
namespace {

void hash_u64(crypto::Sha256& sha, std::uint64_t v) {
  std::uint8_t buf[8];
  store_u64le(buf, v);
  sha.update(ByteView(buf, sizeof(buf)));
}

// Hashes (from, to, size, bytes) of every gossip-channel datagram, then
// forwards it unchanged. Sits under the fault decorator, so it sees the
// records as the receivers will.
class DigestingTransport final : public net::Transport {
 public:
  explicit DigestingTransport(net::Transport& inner) : inner_(inner) {}

  void send(NodeId from, NodeId to, Bytes payload) override {
    if (!payload.empty() &&
        payload[0] == static_cast<std::uint8_t>(net::Channel::kGossip)) {
      hash_u64(sha_, from);
      hash_u64(sha_, to);
      hash_u64(sha_, payload.size());
      sha_.update(payload);
      ++datagrams_;
    }
    inner_.send(from, to, std::move(payload));
  }
  void register_handler(NodeId node, Handler handler) override {
    inner_.register_handler(node, std::move(handler));
  }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  std::uint64_t messages_sent() const override {
    return inner_.messages_sent();
  }

  std::string digest() { return to_hex(sha_.finish()); }
  std::uint64_t datagrams() const { return datagrams_; }

 private:
  net::Transport& inner_;
  crypto::Sha256 sha_;
  std::uint64_t datagrams_ = 0;
};

// Every cache's view of every subject at `now`, predictor bits included,
// plus the merge tallies.
std::string cache_digest(const membership::MembershipProvider& provider,
                         SimTime now) {
  crypto::Sha256 sha;
  const std::size_t n = provider.num_nodes();
  for (NodeId owner = 0; owner < n; ++owner) {
    const membership::NodeCache& cache = provider.cache(owner);
    for (NodeId subject = 0; subject < n; ++subject) {
      const auto obs = cache.observation(subject, now);
      if (!obs.has_value()) {
        hash_u64(sha, ~0ULL);
        continue;
      }
      hash_u64(sha, obs->alive ? 1 : 0);
      hash_u64(sha, static_cast<std::uint64_t>(obs->dt_alive));
      hash_u64(sha, static_cast<std::uint64_t>(obs->dt_since));
      const double q = cache.predictor(subject, now);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &q, sizeof(bits));
      hash_u64(sha, bits);
    }
    const auto& stats = cache.merge_stats();
    hash_u64(sha, cache.known_count());
    hash_u64(sha, stats.updates_direct);
    hash_u64(sha, stats.updates_indirect);
    hash_u64(sha, stats.merges_rejected);
    hash_u64(sha, stats.inflated_rejected);
  }
  return to_hex(sha.finish());
}

struct PinFixture {
  static constexpr std::size_t kNodes = 48;

  explicit PinFixture(const fault::FaultPlan& plan)
      : churn_model(simulator, kNodes, dist, Rng(21), 0.75),
        transport(simulator, latency,
                  [this](NodeId n) { return churn_model.is_up(n); }),
        digesting(transport),
        faulty(digesting, plan, 9, &simulator),
        demux(faulty, kNodes) {}

  sim::Simulator simulator;
  net::LatencyMatrix latency = net::LatencyMatrix::synthetic(kNodes, Rng(20));
  churn::ExponentialLifetime dist{300.0};  // 5 min sessions: joins and leaves
  churn::ChurnModel churn_model;
  net::SimTransport transport;
  DigestingTransport digesting;
  fault::FaultyTransport faulty;
  net::Demux demux;
};

struct Pins {
  std::uint64_t datagrams = 0;
  std::string wire;
  std::string caches;
  membership::ControlStats control;
  fault::FaultyTransport::Counters faults;
};

template <typename Provider, typename Config>
Pins run_pinned(const Config& config, const fault::FaultPlan& plan) {
  PinFixture fx(plan);
  Provider provider(fx.simulator, fx.demux, fx.churn_model, config, Rng(22));
  provider.start();
  fx.churn_model.start();
  fx.simulator.run_until(4 * kMinute);
  Pins pins;
  pins.datagrams = fx.digesting.datagrams();
  pins.wire = fx.digesting.digest();
  pins.caches = cache_digest(provider, fx.simulator.now());
  pins.control = provider.control_stats();
  pins.faults = fx.faulty.counters();
  return pins;
}

TEST(MembershipWirePinTest, Gossip) {
  const auto pins = run_pinned<membership::GossipMembership>(
      membership::GossipConfig{}, fault::FaultPlan{});
  EXPECT_EQ(pins.datagrams, 3925u);
  EXPECT_EQ(pins.wire,
            "f22674ea4cb5191661ce12ab5b0a4964ad8dc01b876d52ee637379644bc48879");
  EXPECT_EQ(pins.caches,
            "7329672e0bb93e3bbd273c91de9284e4584a575fa1041ce132b648a26a85b0f5");
}

TEST(MembershipWirePinTest, GossipResilient) {
  membership::GossipConfig config;
  config.resilient = true;
  const auto pins =
      run_pinned<membership::GossipMembership>(config, fault::FaultPlan{});
  EXPECT_EQ(pins.datagrams, 5973u);
  EXPECT_EQ(pins.wire,
            "54765d67153d37e29e7740ea3668f7de9f4af2b684fa0c7c14d5f61ac9fe92e4");
  EXPECT_EQ(pins.caches,
            "7bf11e13feb9a01a8dfbbe426746656d5ff9bc8a445067d3d693ec7cddacf7e9");
  // The repair round trip ran: digests, repairs and digest replies.
  EXPECT_GT(pins.control.digests_sent, pins.control.anti_entropy_rounds);
  EXPECT_GT(pins.control.repair_records_sent, 0u);
}

TEST(MembershipWirePinTest, OneHop) {
  membership::OneHopConfig config;
  config.units = 6;
  const auto pins =
      run_pinned<membership::OneHopMembership>(config, fault::FaultPlan{});
  EXPECT_EQ(pins.datagrams, 868u);
  EXPECT_EQ(pins.wire,
            "b5966882893f9b602a299f4b85b00f1616ed12ca965f3442d0d36dd63d5b9331");
  EXPECT_EQ(pins.caches,
            "38c081c9ca40215b79c4a568053b7bf41187f73759757378c30777834d917872");
}

TEST(MembershipWirePinTest, OneHopFailover) {
  membership::OneHopConfig config;
  config.units = 6;
  config.deterministic_failover = true;
  // A churn-invisible leader crash gives the watchdogs an election to run.
  fault::FaultPlan plan;
  plan.crash(8, kMinute);
  const auto pins = run_pinned<membership::OneHopMembership>(config, plan);
  EXPECT_EQ(pins.datagrams, 3375u);
  EXPECT_EQ(pins.wire,
            "f4cb7e0c3b3806a40430ba49197e4ab86768c5660297ce6a720c7e7b295a7040");
  EXPECT_EQ(pins.caches,
            "1cd8c4cf3096706447b7c45b851d7a24136068361abeb4cc7b6af5a2b8483bb0");
  EXPECT_GT(pins.control.elections, 0u);
  EXPECT_GT(pins.control.leader_announcements, 0u);
}

// A membership-chaos cell: resilient gossip while records are aged and
// uptime claims inflated in flight, so the digests cover the records the
// fault layer rewrote and the bounded-trust verdicts on them.
TEST(MembershipWirePinTest, GossipUnderStaleInjectAndClaimInflate) {
  membership::GossipConfig config;
  config.resilient = true;
  std::vector<NodeId> inflaters;
  for (NodeId node = 5; node < PinFixture::kNodes; node += 3) {
    inflaters.push_back(node);
  }
  fault::FaultPlan plan;
  plan.stale_inject(/*probability=*/0.5, /*extra_staleness=*/5 * kMinute,
                    kMinute, kNeverTime);
  plan.claim_inflate(/*probability=*/0.8, /*factor=*/3.0,
                     /*boost=*/2 * kHour, kMinute, kNeverTime, inflaters);
  const auto pins = run_pinned<membership::GossipMembership>(config, plan);
  EXPECT_EQ(pins.datagrams, 5970u);
  EXPECT_EQ(pins.wire,
            "03095ee9ffac457b8f326ca86bf21bf6b8db2384c145132f6fae52b2a457fdd4");
  EXPECT_EQ(pins.caches,
            "8093b2c892a1eaf4199219a2285a99db4163839fcfbfbb43b540dea58900ee41");
  EXPECT_GT(pins.faults.stale_injected, 0u);
  EXPECT_GT(pins.faults.claims_inflated, 0u);
}

// --- gossip loss --------------------------------------------------------------

// Counts the gossip datagrams it forwards, apart for those sent inside
// [start, end), and hashes every anon-channel datagram.
class WindowCounter final : public net::Transport {
 public:
  WindowCounter(net::Transport& inner, const sim::Simulator& simulator,
                SimTime start, SimTime end)
      : inner_(inner), simulator_(simulator), start_(start), end_(end) {}

  void send(NodeId from, NodeId to, Bytes payload) override {
    const auto channel = static_cast<net::Channel>(payload.at(0));
    if (channel == net::Channel::kGossip) {
      const SimTime now = simulator_.now();
      ++(now >= start_ && now < end_ ? gossip_in_window : gossip_outside);
    } else if (channel == net::Channel::kAnonForward ||
               channel == net::Channel::kAnonReverse) {
      hash_u64(sha_, from);
      hash_u64(sha_, to);
      hash_u64(sha_, payload.size());
      sha_.update(payload);
      ++anon;
    }
    inner_.send(from, to, std::move(payload));
  }
  void register_handler(NodeId node, Handler handler) override {
    inner_.register_handler(node, std::move(handler));
  }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  std::uint64_t messages_sent() const override {
    return inner_.messages_sent();
  }

  std::string anon_digest() { return to_hex(sha_.finish()); }

  std::uint64_t gossip_in_window = 0;
  std::uint64_t gossip_outside = 0;
  std::uint64_t anon = 0;

 private:
  net::Transport& inner_;
  const sim::Simulator& simulator_;
  SimTime start_;
  SimTime end_;
  crypto::Sha256 sha_;
};

struct GossipLossRun {
  std::uint64_t dropped = 0;
  std::uint64_t total_dropped = 0;
  std::uint64_t sent_in_window = 0;
  std::uint64_t passed_in_window = 0;
  std::uint64_t sent_outside = 0;
  std::uint64_t passed_outside = 0;
  std::uint64_t anon_sent = 0;
  std::uint64_t anon_passed = 0;
  std::string anon_sent_digest;
  std::string anon_passed_digest;
  std::string caches;

  bool operator==(const GossipLossRun&) const = default;
};

// 48 gossiping nodes lose half their gossip datagrams between minutes 1
// and 3, while anon-channel datagrams cross the same decorator.
GossipLossRun run_gossip_loss() {
  constexpr std::size_t kNodes = 48;
  constexpr SimTime kStart = kMinute;
  constexpr SimTime kEnd = 3 * kMinute;
  fault::FaultPlan plan;
  plan.gossip_loss(0.5, kStart, kEnd);

  sim::Simulator simulator;
  const net::LatencyMatrix latency =
      net::LatencyMatrix::synthetic(kNodes, Rng(20));
  churn::ExponentialLifetime dist{300.0};
  churn::ChurnModel churn_model(simulator, kNodes, dist, Rng(21), 0.75);
  net::SimTransport transport(
      simulator, latency, [&](NodeId n) { return churn_model.is_up(n); });
  WindowCounter passed(transport, simulator, kStart, kEnd);
  fault::FaultyTransport faulty(passed, plan, 9, &simulator);
  WindowCounter sent(faulty, simulator, kStart, kEnd);
  net::Demux demux(sent, kNodes);
  membership::GossipMembership gossip(simulator, demux, churn_model,
                                      membership::GossipConfig{}, Rng(22));
  gossip.start();
  churn_model.start();

  // A datagram on one of the anon channels every 250 ms.
  Rng traffic(23);
  for (SimTime at = 0; at < 4 * kMinute; at += 250 * kMillisecond) {
    const auto channel = traffic.bernoulli(0.5) ? net::Channel::kAnonForward
                                                : net::Channel::kAnonReverse;
    const auto from = static_cast<NodeId>(traffic.next_below(kNodes));
    const auto to = static_cast<NodeId>(traffic.next_below(kNodes));
    Bytes payload(1 + traffic.next_below(64));
    traffic.fill(payload.data(), payload.size());
    simulator.schedule_at(at, [&demux, channel, from, to, payload] {
      demux.send(channel, from, to, payload);
    });
  }
  simulator.run_until(4 * kMinute);

  GossipLossRun run;
  run.dropped = faulty.counters().dropped_gossip_loss;
  run.total_dropped = faulty.counters().total_dropped();
  run.sent_in_window = sent.gossip_in_window;
  run.passed_in_window = passed.gossip_in_window;
  run.sent_outside = sent.gossip_outside;
  run.passed_outside = passed.gossip_outside;
  run.anon_sent = sent.anon;
  run.anon_passed = passed.anon;
  run.anon_sent_digest = sent.anon_digest();
  run.anon_passed_digest = passed.anon_digest();
  run.caches = cache_digest(gossip, simulator.now());
  return run;
}

// dropped_gossip_loss counts exactly the gossip datagrams that entered
// the decorator inside the loss window and did not leave it; gossip
// outside the window and every anon datagram pass untouched.
TEST(GossipLossTest, DropsOnlyGossipInsideTheWindowAndCountsEachDrop) {
  const GossipLossRun run = run_gossip_loss();
  EXPECT_EQ(run.dropped, run.sent_in_window - run.passed_in_window);
  EXPECT_EQ(run.total_dropped, run.dropped);
  EXPECT_GT(run.dropped, run.sent_in_window * 2 / 5);
  EXPECT_LT(run.dropped, run.sent_in_window * 3 / 5);
  EXPECT_EQ(run.passed_outside, run.sent_outside);
  EXPECT_GT(run.sent_outside, 0u);
  EXPECT_EQ(run.anon_sent, 4u * 60 * 4);
  EXPECT_EQ(run.anon_passed, run.anon_sent);
  EXPECT_EQ(run.anon_passed_digest, run.anon_sent_digest);

  // Seeded: a second run at the same seeds is the same run.
  EXPECT_EQ(run_gossip_loss(), run);
}

// --- the receive path, driven one datagram at a time -------------------------

// Keeps each node's receive handler, so a test can hand one datagram
// straight to a provider's demux handler, and drops everything sent.
class DirectTransport final : public net::Transport {
 public:
  explicit DirectTransport(std::size_t num_nodes) : handlers_(num_nodes) {}

  void send(NodeId, NodeId, Bytes payload) override {
    ++messages_;
    bytes_ += payload.size();
  }
  void register_handler(NodeId node, Handler handler) override {
    handlers_.at(node) = std::move(handler);
  }
  std::uint64_t bytes_sent() const override { return bytes_; }
  std::uint64_t messages_sent() const override { return messages_; }

  void deliver(NodeId from, NodeId to, ByteView msg) {
    Bytes datagram;
    datagram.push_back(static_cast<std::uint8_t>(net::Channel::kGossip));
    append(datagram, msg);
    handlers_.at(to)(from, to, datagram);
  }

 private:
  std::vector<Handler> handlers_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
};

// A started provider over a churn-free network whose datagrams go nowhere.
template <typename Provider>
struct DirectFixture {
  static constexpr std::size_t kNodes = 16;

  template <typename Config>
  explicit DirectFixture(const Config& config)
      : churn_model(simulator, kNodes, dist, Rng(31), 1.0),
        transport(kNodes),
        demux(transport, kNodes),
        provider(simulator, demux, churn_model, config, Rng(32)) {
    provider.start();
    churn_model.start();
  }

  sim::Simulator simulator;
  churn::ExponentialLifetime dist{1e9};
  churn::ChurnModel churn_model;
  DirectTransport transport;
  net::Demux demux;
  Provider provider;
};

struct WireRecord {
  NodeId subject;
  bool alive;
  std::uint64_t dt_alive;  // raw wire values: any bit pattern
  std::uint64_t dt_since;
};

// [kind][count u16be][records], written field by field independently of
// the codec under test.
Bytes record_message(std::uint8_t kind,
                     const std::vector<WireRecord>& records) {
  Bytes msg;
  msg.push_back(kind);
  put_u16be(msg, static_cast<std::uint16_t>(records.size()));
  for (const WireRecord& r : records) {
    put_u32be(msg, r.subject);
    msg.push_back(r.alive ? 1 : 0);
    put_u64be(msg, r.dt_alive);
    put_u64be(msg, r.dt_since);
  }
  return msg;
}

std::uint64_t wire(SimDuration d) { return static_cast<std::uint64_t>(d); }

// A record whose dt_since has the top bit set reads as a negative
// duration: "fresher than anything". Merged, it would win every later
// freshness contest for its subject. The decoder skips it, a record with
// a negative dt_alive, and records with a duration past
// liveness_wire::kMaxDuration (whose sums would overflow int64), and
// merges the rest of the message; the next honest record of the subject
// still lands.
TEST(MembershipDecodeTest, NegativeDurationRecordsAreSkipped) {
  DirectFixture<membership::GossipMembership> fx(membership::GossipConfig{});
  fx.simulator.run_until(kMinute);  // seeded records are now 60 s old
  const SimTime now = fx.simulator.now();
  const membership::NodeCache& cache = fx.provider.cache(1);

  const auto poison = wire(std::numeric_limits<SimDuration>::min() + 1000);
  const std::uint64_t bound = net::liveness_wire::kMaxDuration;
  const auto longest = wire(std::numeric_limits<SimDuration>::max());
  fx.transport.deliver(
      2, 1,
      record_message(/*kind=*/1, {{2, true, wire(90 * kSecond), 0},
                                  {5, true, wire(100 * kSecond), poison},
                                  {6, true, wire(200 * kSecond), wire(kSecond)},
                                  {7, true, wire(-5), wire(kSecond)},
                                  {8, true, bound + 1, wire(kSecond)},
                                  {9, true, wire(100 * kSecond), longest},
                                  {10, true, bound, wire(kSecond)}}));
  // The sender's own record and the honest records merged, the one at the
  // bound included...
  EXPECT_EQ(cache.find(2)->dt_alive, 90 * kSecond);
  EXPECT_EQ(cache.observation(6, now)->dt_since, kSecond);
  EXPECT_EQ(cache.find(10)->dt_alive, static_cast<SimDuration>(bound));
  // ...the negative and oversized ones did not: their subjects keep their
  // seeded record.
  for (const NodeId subject : {5, 7, 8, 9}) {
    EXPECT_EQ(cache.observation(subject, now)->dt_since, kMinute) << subject;
  }

  // A fresh honest record of subject 5 is accepted, and an hour later the
  // predictor reads its real age, not a pinned 1.0.
  fx.transport.deliver(
      3, 1,
      record_message(1, {{3, true, wire(kMinute), 0},
                         {5, true, wire(120 * kSecond), wire(5 * kSecond)}}));
  const auto heard = cache.observation(5, now);
  ASSERT_TRUE(heard.has_value());
  EXPECT_EQ(heard->dt_alive, 120 * kSecond);
  EXPECT_EQ(heard->dt_since, 5 * kSecond);
  EXPECT_LT(cache.predictor(5, now + kHour), 0.1);
}

// A record naming a subject past the id space is skipped too, where it
// used to throw out of the provider's handler; the rest still merges.
TEST(MembershipDecodeTest, OutOfRangeSubjectIsSkipped) {
  DirectFixture<membership::OneHopMembership> fx(membership::OneHopConfig{});
  fx.simulator.run_until(kMinute);
  const SimTime now = fx.simulator.now();
  const membership::NodeCache& cache = fx.provider.cache(1);
  EXPECT_NO_THROW(fx.transport.deliver(
      2, 1,
      record_message(/*kind=*/3, {{2, true, wire(kSecond), 0},
                                  {1000, true, wire(kSecond), 0},
                                  {6, false, 0, 0}})));
  EXPECT_FALSE(cache.observation(6, now)->alive);
  EXPECT_EQ(cache.known_count(),
            DirectFixture<membership::OneHopMembership>::kNodes - 1);
}

// A message under a kind OneHop never sends is dropped before any of its
// records merge, as gossip drops one: a record saying node 6 left, sent
// under kind 0x63, leaves the receiver's belief about node 6 as it was.
TEST(MembershipDecodeTest, OneHopDropsUnknownKinds) {
  DirectFixture<membership::OneHopMembership> fx(membership::OneHopConfig{});
  fx.simulator.run_until(kMinute);
  const SimTime now = fx.simulator.now();
  const membership::NodeCache& cache = fx.provider.cache(1);
  const auto before = cache.observation(6, now);
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(before->alive);

  fx.transport.deliver(2, 1, record_message(0x63, {{6, false, 0, 0}}));
  const auto after = cache.observation(6, now);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->alive);
  EXPECT_EQ(after->dt_alive, before->dt_alive);
  EXPECT_EQ(after->dt_since, before->dt_since);

  // The same record under a real kind (3, a keepalive) does land.
  fx.transport.deliver(2, 1, record_message(3, {{6, false, 0, 0}}));
  EXPECT_FALSE(cache.observation(6, now)->alive);
}

// Every parsed membership message, mutated (tests/mutations.hpp), fed
// through the provider's demux handler. Nothing may crash or throw, the
// receiving cache's known_count() must match its known entries after every
// datagram, and a truncated message merges nothing.
std::uint64_t merges(const membership::NodeCache& cache) {
  const auto& stats = cache.merge_stats();
  return stats.updates_direct + stats.updates_indirect +
         stats.merges_rejected + stats.inflated_rejected;
}

template <typename Provider, typename Config>
void mutate_every_kind(const Config& config,
                       const std::vector<Bytes>& messages) {
  constexpr NodeId kFrom = 2;
  constexpr NodeId kTo = 1;
  DirectFixture<Provider> fx(config);
  membership::NodeCache& cache = fx.provider.cache(kTo);
  cache.clear();  // start sparse, so merges change known_count()
  Rng rng(33);
  std::size_t fed = 0;
  std::size_t inconsistent = 0;
  std::size_t truncated_merges = 0;
  for (const Bytes& msg : messages) {
    for (const Bytes& mutated : mutations_of(msg, messages, rng)) {
      const std::uint64_t before = merges(cache);
      EXPECT_NO_THROW(fx.transport.deliver(kFrom, kTo, mutated));
      ++fed;
      std::size_t known = 0;
      for (NodeId node = 0; node < cache.capacity(); ++node) {
        if (cache.find(node) != std::nullopt) ++known;
      }
      if (cache.known_count() != known) ++inconsistent;
      const bool truncation =
          mutated.size() < msg.size() &&
          std::equal(mutated.begin(), mutated.end(), msg.begin());
      if (truncation && merges(cache) != before) ++truncated_merges;
    }
  }
  EXPECT_GT(fed, 1000u);
  EXPECT_EQ(inconsistent, 0u);
  EXPECT_EQ(truncated_merges, 0u);
  EXPECT_GT(cache.known_count(), 0u);
}

Bytes digest_message(std::uint8_t kind) {
  Bytes msg;
  msg.push_back(kind);
  put_u16be(msg, 16);
  for (std::uint64_t b = 0; b < 16; ++b) {
    put_u64be(msg, b * 0x9e3779b97f4a7c15ULL);
  }
  return msg;
}

std::vector<WireRecord> sample_records(NodeId sender) {
  return {{sender, true, wire(90 * kSecond), 0},
          {3, true, wire(300 * kSecond), wire(4 * kSecond)},
          {4, false, 0, wire(2 * kSecond)},
          {9, true, wire(40 * kSecond), wire(kMinute)}};
}

TEST(MembershipParserMutationTest, GossipKindsSurviveEveryMutation) {
  const auto records = sample_records(2);
  const std::vector<Bytes> messages = {
      record_message(1, records),  // gossip
      Bytes{2},                    // sync request
      record_message(3, records),  // sync response
      digest_message(4),           // digest
      record_message(5, records),  // repair
      digest_message(6),           // digest reply
  };
  membership::GossipConfig plain;
  mutate_every_kind<membership::GossipMembership>(plain, messages);
  membership::GossipConfig resilient;
  resilient.resilient = true;  // parses digests; bounded-trust merging
  mutate_every_kind<membership::GossipMembership>(resilient, messages);
}

TEST(MembershipParserMutationTest, OneHopKindsSurviveEveryMutation) {
  const auto records = sample_records(2);
  const std::vector<Bytes> messages = {
      record_message(1, {{2, true, wire(90 * kSecond), 0}}),  // event to leader
      record_message(2, {{9, false, 0, wire(kSecond)}}),      // inter-leader
      record_message(3, records),                             // keepalive
      record_message(4, records),                             // leader announce
  };
  membership::OneHopConfig ground_truth;
  ground_truth.units = 4;
  mutate_every_kind<membership::OneHopMembership>(ground_truth, messages);
  membership::OneHopConfig failover = ground_truth;
  failover.deterministic_failover = true;
  mutate_every_kind<membership::OneHopMembership>(failover, messages);
}

}  // namespace
}  // namespace p2panon
