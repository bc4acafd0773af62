// Epidemic membership dissemination with liveness piggybacking (paper §4.8,
// §4.9 "Learning Node Liveness Information").
//
// Every live node runs a periodic gossip task. A gossip message carries:
//   - the sender's own record (dt_alive since its last join, dt_since = 0),
//   - "hot" rumors: membership changes the sender recently learned, each
//     forwarded a bounded number of times (rumor mongering),
//   - a few random cache records for anti-entropy.
// Receivers apply the paper's merge rules (NodeCache) and re-enqueue
// accepted changes as rumors, giving O(log N) dissemination.
//
// Join/leave handling mirrors OneHop's behavior at the level the paper
// relies on: a joining node announces itself to a few live contacts and
// pulls a full cache snapshot from one of them; a leave is noticed by a few
// "overlay neighbor" nodes after a short detection delay (standing in for
// OneHop's keepalive-based failure detection — see DESIGN.md substitutions)
// and then spreads epidemically like any other rumor.
#pragma once

#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "churn/churn_model.hpp"
#include "common/rng.hpp"
#include "membership/node_cache.hpp"
#include "membership/provider.hpp"
#include "net/demux.hpp"
#include "sim/simulator.hpp"

namespace p2panon::membership {

struct GossipConfig {
  // Anti-entropy records per message, swept round-robin over the id space
  // so every record's staleness is bounded by (N / refresh_records) *
  // gossip interval and roughly UNIFORM across subjects. Uniform staleness
  // is what makes the Eq. 3 predictor rank by age (q = a / (a + s)
  // compares s/a; with random per-subject staleness the freshest-heard
  // node wins regardless of age and biased mix choice degenerates) — it
  // models OneHop's periodic full-membership keepalive refresh.
  std::size_t refresh_records = 64;

  /// Control-plane resilience (DESIGN §9). Turns on, together:
  ///   - digest-based anti-entropy repair every 15 s: each round a node
  ///     sends one partner a compact per-bucket digest of its alive/dead
  ///     beliefs; the partner pushes back records for every differing
  ///     bucket and returns its own digest so repair flows both ways (one
  ///     round trip, loop-free). This is what re-converges caches after a
  ///     gossip blackout or partition heals — rumor mongering alone has
  ///     already forgotten the deltas by then;
  ///   - bounded-trust merging, and the suspicion machinery it files
  ///     inflation evidence through, on every cache;
  ///   - per-node RNG streams for gossip peer selection and churn-observer
  ///     picks, so one node's draw history is independent of every other
  ///     node's tick interleaving.
  /// Off, RNG draw sequences and wire traffic are byte-identical to the
  /// seed.
  bool resilient = false;
};

class GossipMembership final : public MembershipProvider {
 public:
  GossipMembership(sim::Simulator& simulator, net::Demux& demux,
                   churn::ChurnModel& churn_model, GossipConfig config,
                   Rng rng);
  GossipMembership(const GossipMembership&) = delete;
  GossipMembership& operator=(const GossipMembership&) = delete;

  /// Seeds caches, subscribes to churn and starts the per-node gossip
  /// tasks (with random phase so rounds don't align).
  void start() override;

  NodeCache& cache(NodeId node) override { return caches_[node]; }
  const NodeCache& cache(NodeId node) const override { return caches_[node]; }

  /// The node's own uptime (what it would report in its packets).
  SimDuration own_uptime(NodeId node) const override;

  std::size_t num_nodes() const override { return caches_.size(); }

  /// Fraction of (live observer, subject) pairs whose alive/dead belief
  /// matches ground truth — dissemination quality metric used in tests.
  double belief_accuracy() const override;

  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  ControlStats control_stats() const override { return control_stats_; }

  void byte_census(obs::capacity::ByteCensus& census) const override;

 private:
  struct Rumor {
    NodeId subject;
    int remaining;
  };

  void on_churn(NodeId node, bool up, SimTime when);
  void gossip_tick(NodeId node);
  void anti_entropy_tick(NodeId node);
  void handle_message(NodeId from, NodeId to, ByteView payload);
  void handle_digest(NodeId from, NodeId to, ByteView payload,
                     bool reply_with_digest);
  void enqueue_rumor(NodeId owner, NodeId subject);
  void send_records(NodeId from, NodeId to, std::uint8_t kind,
                    const std::vector<NodeId>& subjects);
  void send_digest(NodeId from, NodeId to, std::uint8_t kind);
  std::vector<std::uint64_t> compute_digest(NodeId node) const;
  std::vector<NodeId> pick_gossip_targets(NodeId node, std::size_t count,
                                          Rng& rng);
  /// The stream a node's own decisions draw from: its private stream in
  /// resilient mode, the instance-shared stream otherwise.
  Rng& decision_rng(NodeId node) {
    return config_.resilient ? node_rngs_[node] : rng_;
  }

  sim::Simulator& simulator_;
  net::Demux& demux_;
  churn::ChurnModel& churn_;
  GossipConfig config_;
  Rng rng_;

  std::vector<NodeCache> caches_;
  std::vector<std::deque<Rumor>> rumor_queues_;
  std::vector<std::unordered_set<NodeId>> rumor_members_;  // dedupe
  std::vector<NodeId> refresh_cursors_;  // round-robin anti-entropy sweep
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> anti_entropy_tasks_;
  // Per-node streams, materialized in start() only in resilient mode so
  // the default draws nothing extra from rng_.
  std::vector<Rng> node_rngs_;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  ControlStats control_stats_;
};

// --- Helpers shared with the OneHop variant ----------------------------------

/// Seeds every cache from churn ground truth at `now`: OneHop gives nodes
/// "accurate and complete membership information", so both providers
/// bootstrap that state at start() and let dissemination maintain it.
void seed_from_ground_truth(std::vector<NodeCache>& caches,
                            const churn::ChurnModel& churn, SimTime now);

/// Delay before a leave is noticed (OneHop-style keepalive failure
/// detection): uniform over [500 ms, 2 s], one draw from `rng`.
SimDuration detection_delay(Rng& rng);

/// One deterministic stream per node, all seeded from a single draw of
/// `rng`.
std::vector<Rng> node_streams(Rng& rng, std::size_t num_nodes);

/// Serialized liveness record: subject(4) flags(1) dt_alive(8) dt_since(8).
constexpr std::size_t kRecordWireSize = 21;

void encode_record(Bytes& out, NodeId subject, const LivenessInfo& info);

struct DecodedRecord {
  NodeId subject;
  LivenessInfo info;
};

/// Decodes `count` records from `in` starting at `offset`; returns false on
/// truncation.
bool decode_records(ByteView in, std::size_t offset, std::size_t count,
                    std::vector<DecodedRecord>& out);

}  // namespace p2panon::membership
