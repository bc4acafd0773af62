#include "membership/gossip.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "net/liveness_wire.hpp"
#include "obs/capacity/census.hpp"

namespace p2panon::membership {

namespace {
// Message kinds within the gossip channel.
constexpr std::uint8_t kKindGossip = 1;
constexpr std::uint8_t kKindSyncRequest = 2;
constexpr std::uint8_t kKindSyncResponse = 3;
// Anti-entropy repair (control-plane resilience, DESIGN §9). Digest and
// digest-reply messages share the liveness header, [kind][count u16be],
// but carry count u64be bucket hashes, not records — their size never
// matches header + count * 21 bytes, so the fault layer's record-mutation
// rules pass them through untouched.
constexpr std::uint8_t kKindDigest = 4;       // opens a repair round trip
constexpr std::uint8_t kKindRepair = 5;       // records healing a diff
constexpr std::uint8_t kKindDigestReply = 6;  // closes the round (no reply)

constexpr SimDuration kGossipInterval = 2 * kSecond;  // per-node period
constexpr std::size_t kFanout = 1;        // targets per round
constexpr std::size_t kMaxRumors = 32;    // hot records per message
constexpr int kRumorForwards = 4;         // times a node forwards a rumor
constexpr std::size_t kChurnObservers = 3;  // nodes that notice join/leave
// Records per sync-response or repair message.
constexpr std::size_t kRecordChunk = 4 * kMaxRumors;

// Resilient mode's anti-entropy repair period.
constexpr SimDuration kAntiEntropyInterval = 15 * kSecond;

constexpr SimDuration kDetectionDelayMin = 500 * kMillisecond;
constexpr SimDuration kDetectionDelayMax = 2 * kSecond;

// Stateless mixer for digest hashing and per-node stream seeds
// (SplitMix64 finalizer).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

void seed_from_ground_truth(std::vector<NodeCache>& caches,
                            const churn::ChurnModel& churn, SimTime now) {
  const std::size_t n = caches.size();
  for (NodeId owner = 0; owner < n; ++owner) {
    for (NodeId subject = 0; subject < n; ++subject) {
      if (subject == owner) continue;
      if (churn.is_up(subject)) {
        caches[owner].heard_directly(subject, 0, now);
      } else {
        caches[owner].heard_left_directly(subject, now);
      }
    }
  }
}

SimDuration detection_delay(Rng& rng) {
  return kDetectionDelayMin +
         static_cast<SimDuration>(rng.next_below(static_cast<std::uint64_t>(
             kDetectionDelayMax - kDetectionDelayMin + 1)));
}

std::vector<Rng> node_streams(Rng& rng, std::size_t num_nodes) {
  const std::uint64_t base = rng.next_u64();
  std::vector<Rng> streams;
  streams.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    streams.emplace_back(base ^ mix64(static_cast<std::uint64_t>(i) + 1));
  }
  return streams;
}

GossipMembership::GossipMembership(sim::Simulator& simulator,
                                   net::Demux& demux,
                                   churn::ChurnModel& churn_model,
                                   GossipConfig config, Rng rng)
    : simulator_(simulator),
      demux_(demux),
      churn_(churn_model),
      config_(config),
      rng_(rng) {
  const std::size_t n = churn_.num_nodes();
  caches_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) caches_.emplace_back(n);
  rumor_queues_.resize(n);
  rumor_words_ = (n + 63) / 64;
  rumor_bits_.assign(n * rumor_words_, 0);
  // Stagger the sweep phases so the network's refresh load is smooth and
  // different owners don't all have the same subjects stale at once.
  refresh_cursors_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    refresh_cursors_[i] = static_cast<NodeId>(rng_.next_below(n));
  }
  if (config_.resilient) {
    for (NodeCache& cache : caches_) {
      cache.enable_bounded_trust();
      cache.enable_suspicion();
    }
  }
}

void GossipMembership::start() {
  const std::size_t n = caches_.size();
  seed_from_ground_truth(caches_, churn_, simulator_.now());

  demux_.set_handler(net::Channel::kGossip,
                     [this](NodeId from, NodeId to, ByteView payload) {
                       handle_message(from, to, payload);
                     });

  churn_.subscribe([this](NodeId node, bool up, SimTime when) {
    on_churn(node, up, when);
  });

  // Per-node streams: one extra draw from rng_ seeds all of them, taken
  // only in resilient mode — the default start() sequence is unchanged.
  if (config_.resilient) node_rngs_ = node_streams(rng_, n);

  static const auto kRoundEvent = obs::capacity::event_type("gossip.round");
  tasks_.reserve(n);
  for (NodeId node = 0; node < n; ++node) {
    auto task = std::make_unique<sim::PeriodicTask>(
        simulator_, kGossipInterval, [this, node] { gossip_tick(node); },
        kRoundEvent);
    // Random phase so the fleet doesn't gossip in lockstep.
    task->start_at(simulator_.now() +
                   static_cast<SimDuration>(rng_.next_below(
                       static_cast<std::uint64_t>(kGossipInterval))));
    tasks_.push_back(std::move(task));
  }

  if (config_.resilient) {
    static const auto kAntiEntropyEvent =
        obs::capacity::event_type("gossip.anti_entropy");
    anti_entropy_tasks_.reserve(n);
    for (NodeId node = 0; node < n; ++node) {
      auto task = std::make_unique<sim::PeriodicTask>(
          simulator_, kAntiEntropyInterval,
          [this, node] { anti_entropy_tick(node); }, kAntiEntropyEvent);
      task->start_at(simulator_.now() +
                     static_cast<SimDuration>(node_rngs_[node].next_below(
                         static_cast<std::uint64_t>(kAntiEntropyInterval))));
      anti_entropy_tasks_.push_back(std::move(task));
    }
  }
}

SimDuration GossipMembership::own_uptime(NodeId node) const {
  return from_seconds(churn_.alive_seconds(node, simulator_.now()));
}

void GossipMembership::on_churn(NodeId node, bool up, SimTime when) {
  // A node that changes state invalidates its own pending rumors.
  (void)when;
  if (up) {
    // The joiner announces itself to a few contacts from its (stale) cache
    // and pulls a snapshot from one of them. Contacts that are dead simply
    // drop the message.
    auto contacts = caches_[node].sample_known(
        std::min<std::size_t>(kChurnObservers, caches_[node].known_count()),
        decision_rng(node), {node});
    bool sync_requested = false;
    for (NodeId contact : contacts) {
      begin_records(node, kKindGossip, /*max_records=*/0);
      send_message(node, contact, writer_.finish());
      if (!sync_requested) {
        const std::uint8_t request[] = {kKindSyncRequest};
        send_message(node, contact, request);
        sync_requested = true;
      }
    }
  } else {
    // OneHop-style failure detection: after a short delay the subject's
    // overlay neighbors notice the silence. We pick a few live nodes as
    // those neighbors (simulator shortcut documented in DESIGN.md) and let
    // the news spread epidemically from them.
    const SimDuration delay = detection_delay(decision_rng(node));
    static const auto kDetectEvent =
        obs::capacity::event_type("gossip.detect");
    simulator_.schedule_after(
        delay,
        [this, node] {
          if (churn_.is_up(node)) return;  // re-joined before detection
          std::size_t found = 0;
          const std::size_t n = caches_.size();
          for (std::size_t attempt = 0;
               attempt < 8 * kChurnObservers && found < kChurnObservers;
               ++attempt) {
            const NodeId observer =
                static_cast<NodeId>(decision_rng(node).next_below(n));
            if (observer == node || !churn_.is_up(observer)) continue;
            caches_[observer].heard_left_directly(node, simulator_.now());
            enqueue_rumor(observer, node);
            ++found;
          }
        },
        kDetectEvent);
  }
}

void GossipMembership::enqueue_rumor(NodeId owner, NodeId subject) {
  std::uint64_t& word = rumor_word(owner, subject);
  const std::uint64_t bit = std::uint64_t{1} << (subject % 64);
  if (word & bit) return;
  word |= bit;
  rumor_queues_[owner].push_back(Rumor{subject, kRumorForwards});
}

void GossipMembership::pick_gossip_targets(NodeId node, std::size_t count,
                                           Rng& rng) {
  // Believed-alive cache entries, found by rejection sampling: with the
  // near-complete caches OneHop-style membership maintains, a random node
  // id is a valid target about half the time, so this avoids building a
  // candidate pool of N entries every gossip round (the hot path of the
  // whole simulation).
  const NodeCache& cache = caches_[node];
  const std::size_t n = caches_.size();
  std::vector<NodeId>& out = targets_;
  out.clear();
  for (std::size_t attempt = 0; attempt < 16 * count + 64 && out.size() < count;
       ++attempt) {
    const NodeId candidate = static_cast<NodeId>(rng.next_below(n));
    if (candidate == node) continue;
    const auto entry = cache.find(candidate);
    if (!entry || !entry->alive) continue;
    bool duplicate = false;
    for (NodeId existing : out) {
      if (existing == candidate) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.push_back(candidate);
  }
}

void GossipMembership::begin_records(NodeId from, std::uint8_t kind,
                                     std::size_t max_records) {
  writer_.begin(kind, 1 + max_records);
  writer_.add(from, LivenessInfo{own_uptime(from), 0, true});
}

void GossipMembership::send_message(NodeId from, NodeId to, ByteView msg) {
  demux_.send(net::Channel::kGossip, from, to, msg);
  ++messages_sent_;
  bytes_sent_ += msg.size();
}

template <typename Pick>
std::size_t GossipMembership::send_chunked(NodeId from, NodeId to,
                                           std::uint8_t kind, Pick&& pick) {
  const SimTime now = simulator_.now();
  const NodeCache& cache = caches_[from];
  const std::size_t n = caches_.size();
  std::size_t sent = 0;
  for (NodeId subject = 0; subject < n; ++subject) {
    if (subject == from || !pick(subject)) continue;
    const auto entry = cache.find(subject);
    if (!entry) continue;
    if (sent % kRecordChunk == 0) begin_records(from, kind, kRecordChunk);
    writer_.add(subject, entry->observation(now));
    if (++sent % kRecordChunk == 0) send_message(from, to, writer_.finish());
  }
  if (sent % kRecordChunk != 0) send_message(from, to, writer_.finish());
  return sent;
}

void GossipMembership::gossip_tick(NodeId node) {
  if (!churn_.is_up(node)) return;
  const SimTime now = simulator_.now();
  const NodeCache& cache = caches_[node];
  begin_records(node, kKindGossip, kMaxRumors + config_.refresh_records);

  // Drain up to kMaxRumors from the hot queue.
  auto& queue = rumor_queues_[node];
  std::size_t scanned = 0;
  const std::size_t limit = std::min(queue.size(), kMaxRumors);
  while (scanned < limit) {
    Rumor rumor = queue.front();
    queue.pop_front();
    ++scanned;
    if (rumor.subject != node) {
      if (const auto entry = cache.find(rumor.subject)) {
        writer_.add(rumor.subject, entry->observation(now));
      }
    }
    if (--rumor.remaining > 0) {
      queue.push_back(rumor);
    } else {
      rumor_word(node, rumor.subject) &=
          ~(std::uint64_t{1} << (rumor.subject % 64));
    }
  }

  // Anti-entropy: sweep the id space round-robin so every subject's record
  // is refreshed on a bounded cycle (uniform staleness; see GossipConfig).
  const std::size_t n = caches_.size();
  std::size_t added = 0;
  std::size_t scanned_ids = 0;
  NodeId cursor = refresh_cursors_[node];
  while (added < config_.refresh_records && scanned_ids < n) {
    const NodeId candidate = cursor;
    if (++cursor == n) cursor = 0;
    ++scanned_ids;
    if (candidate == node) continue;
    const auto entry = cache.find(candidate);
    if (!entry) continue;
    writer_.add(candidate, entry->observation(now));
    ++added;
  }
  refresh_cursors_[node] = cursor;

  pick_gossip_targets(node, kFanout, decision_rng(node));
  if (targets_.empty()) return;
  const ByteView msg = writer_.finish();
  for (NodeId target : targets_) send_message(node, target, msg);
}

// --- anti-entropy repair (DESIGN §9) ---------------------------------------

GossipMembership::Digest GossipMembership::compute_digest(NodeId node) const {
  // Per-bucket XOR fold of h(subject, believed-alive) over known entries.
  // Deliberately excludes the dt fields: those differ between any two
  // caches almost always (local staleness), and a digest over them would
  // flag every bucket every round. Alive/dead belief is the state whose
  // divergence anti-entropy exists to heal.
  Digest buckets{};
  const NodeCache& cache = caches_[node];
  const std::size_t n = caches_.size();
  for (NodeId subject = 0; subject < n; ++subject) {
    const auto entry = cache.find(subject);
    if (!entry) continue;
    const std::uint64_t h =
        mix64(static_cast<std::uint64_t>(subject) * 2 +
              (entry->alive ? 1 : 0));
    buckets[subject % kDigestBuckets] ^= h;
  }
  return buckets;
}

void GossipMembership::send_digest(NodeId from, NodeId to,
                                   std::uint8_t kind) {
  namespace wire = net::liveness_wire;
  const Digest buckets = compute_digest(from);
  std::array<std::uint8_t, wire::kHeaderSize + kDigestBuckets * 8> msg;
  msg[wire::kKindOffset] = kind;
  store_u16be(msg.data() + wire::kCountOffset,
              static_cast<std::uint16_t>(kDigestBuckets));
  for (std::size_t b = 0; b < kDigestBuckets; ++b) {
    store_u64be(msg.data() + wire::kHeaderSize + b * 8, buckets[b]);
  }
  send_message(from, to, msg);
  ++control_stats_.digests_sent;
}

void GossipMembership::anti_entropy_tick(NodeId node) {
  if (!churn_.is_up(node)) return;
  pick_gossip_targets(node, 1, node_rngs_[node]);
  if (targets_.empty()) return;
  ++control_stats_.anti_entropy_rounds;
  send_digest(node, targets_.front(), kKindDigest);
}

void GossipMembership::handle_digest(NodeId from, NodeId to, ByteView payload,
                                     bool reply_with_digest) {
  namespace wire = net::liveness_wire;
  if (payload.size() < wire::kHeaderSize) return;
  const std::size_t count = load_u16be(payload.data() + wire::kCountOffset);
  if (count == 0 || payload.size() < wire::kHeaderSize + count * 8) return;
  const Digest own = compute_digest(to);
  // Every node folds into kDigestBuckets slots; a truncated or malformed
  // digest is compared only over the common prefix.
  const std::size_t buckets = std::min(own.size(), count);
  std::array<bool, kDigestBuckets> differs{};
  bool any = false;
  for (std::size_t b = 0; b < buckets; ++b) {
    if (own[b] != load_u64be(payload.data() + wire::kHeaderSize + b * 8)) {
      differs[b] = true;
      any = true;
    }
  }
  if (any) {
    // Push our records for every differing bucket; the peer's merge rules
    // keep whichever side is fresher, so pushing is safe even when the
    // peer is the one with better information.
    control_stats_.repair_records_sent +=
        send_chunked(to, from, kKindRepair, [&](NodeId subject) {
          return differs[subject % kDigestBuckets];
        });
  }
  // Close the round trip with our own digest so the initiator can push the
  // buckets where *we* are behind. A reply never triggers another reply.
  if (reply_with_digest) send_digest(to, from, kKindDigestReply);
}

void GossipMembership::handle_message(NodeId from, NodeId to,
                                      ByteView payload) {
  if (!churn_.is_up(to) || payload.empty()) return;
  const std::uint8_t kind = payload[0];
  const SimTime now = simulator_.now();

  if (kind == kKindSyncRequest) {
    // Full-cache snapshot back to the joiner, chunked into gossip-sized
    // messages.
    send_chunked(to, from, kKindSyncResponse,
                 [](NodeId) { return true; });
    return;
  }

  if (kind == kKindDigest || kind == kKindDigestReply) {
    if (!config_.resilient) return;
    handle_digest(from, to, payload,
                  /*reply_with_digest=*/kind == kKindDigest);
    return;
  }

  if (kind != kKindGossip && kind != kKindSyncResponse && kind != kKindRepair) {
    return;
  }
  // The sender's own record (record 0) is a direct observation. Re-gossip
  // accepted *state changes* (alive flips or first sightings); routine
  // freshness updates don't need rumor amplification, and sync responses
  // never re-gossip. Repair-healed flips DO re-gossip: a node whose
  // blackout just ended is the best seed for spreading the healed state
  // onward.
  const bool regossip = kind == kKindGossip || kind == kKindRepair;
  merge_records(
      payload, caches_[to], to, now,
      [from](std::size_t index, NodeId subject, const LivenessInfo&) {
        return index == 0 && subject == from;
      },
      [&](NodeId subject, const LivenessInfo&, NodeCache::Merged merged) {
        if (merged.accepted && kind == kKindRepair) {
          ++control_stats_.repair_records_accepted;
        }
        if (merged.changed && regossip) enqueue_rumor(to, subject);
      });
}

double GossipMembership::belief_accuracy() const {
  const std::size_t n = caches_.size();
  std::uint64_t correct = 0;
  std::uint64_t total = 0;
  for (NodeId owner = 0; owner < n; ++owner) {
    if (!churn_.is_up(owner)) continue;
    for (NodeId subject = 0; subject < n; ++subject) {
      if (subject == owner) continue;
      const auto entry = caches_[owner].find(subject);
      const bool believed_alive = entry && entry->alive;
      ++total;
      if (believed_alive == churn_.is_up(subject)) ++correct;
    }
  }
  return total ? static_cast<double>(correct) / static_cast<double>(total)
               : 0.0;
}

void GossipMembership::byte_census(obs::capacity::ByteCensus& census) const {
  std::uint64_t cache_bytes =
      obs::capacity::vector_bytes(caches_);  // headers
  for (const NodeCache& cache : caches_) cache_bytes += cache.memory_bytes();
  census.add("membership", "node_caches", cache_bytes);

  std::uint64_t rumor_bytes = obs::capacity::vector_bytes(rumor_queues_);
  for (const auto& queue : rumor_queues_) {
    rumor_bytes += queue.size() * sizeof(Rumor);
  }
  rumor_bytes += obs::capacity::vector_bytes(rumor_bits_);
  census.add("membership", "rumor_queues", rumor_bytes);

  census.add("membership", "refresh_cursors",
             obs::capacity::vector_bytes(refresh_cursors_));
  census.add("membership", "node_rngs",
             obs::capacity::vector_bytes(node_rngs_));
  census.add("membership", "gossip_tasks",
             obs::capacity::vector_bytes(tasks_) +
                 obs::capacity::vector_bytes(anti_entropy_tasks_) +
                 (tasks_.size() + anti_entropy_tasks_.size()) *
                     sizeof(sim::PeriodicTask));
}

}  // namespace p2panon::membership
