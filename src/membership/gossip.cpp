#include "membership/gossip.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/capacity/census.hpp"

namespace p2panon::membership {

namespace {
// Message kinds within the gossip channel.
constexpr std::uint8_t kKindGossip = 1;
constexpr std::uint8_t kKindSyncRequest = 2;
constexpr std::uint8_t kKindSyncResponse = 3;
// Anti-entropy repair (control-plane resilience, DESIGN §9). Digest and
// digest-reply bodies are bucket hashes, not liveness records — their
// shape deliberately never matches [count u16][count * 21-byte records],
// so the fault layer's record-mutation rules pass them through untouched.
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

// Resilient mode's anti-entropy repair period, and the digest resolution:
// beliefs are XOR-folded into `subject % kDigestBuckets` slots. More
// buckets = finer diffs = fewer records pushed per repair.
constexpr SimDuration kAntiEntropyInterval = 15 * kSecond;
constexpr std::size_t kDigestBuckets = 16;

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

void encode_record(Bytes& out, NodeId subject, const LivenessInfo& info) {
  put_u32be(out, subject);
  out.push_back(info.alive ? 1 : 0);
  put_u64be(out, static_cast<std::uint64_t>(info.dt_alive));
  put_u64be(out, static_cast<std::uint64_t>(info.dt_since));
}

bool decode_records(ByteView in, std::size_t offset, std::size_t count,
                    std::vector<DecodedRecord>& out) {
  if (offset + count * kRecordWireSize > in.size()) return false;
  out.reserve(out.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    DecodedRecord rec;
    rec.subject = get_u32be(in, offset);
    rec.info.alive = in[offset + 4] != 0;
    rec.info.dt_alive = static_cast<SimDuration>(get_u64be(in, offset + 5));
    rec.info.dt_since = static_cast<SimDuration>(get_u64be(in, offset + 13));
    out.push_back(rec);
    offset += kRecordWireSize;
  }
  return true;
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
  rumor_members_.resize(n);
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
      send_records(node, contact, kKindGossip, {});
      if (!sync_requested) {
        Bytes req;
        req.push_back(kKindSyncRequest);
        demux_.send(net::Channel::kGossip, node, contact, req);
        ++messages_sent_;
        bytes_sent_ += req.size();
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
  auto& members = rumor_members_[owner];
  if (members.count(subject) > 0) return;
  members.insert(subject);
  rumor_queues_[owner].push_back(Rumor{subject, kRumorForwards});
}

std::vector<NodeId> GossipMembership::pick_gossip_targets(NodeId node,
                                                          std::size_t count,
                                                          Rng& rng) {
  // Believed-alive cache entries, found by rejection sampling: with the
  // near-complete caches OneHop-style membership maintains, a random node
  // id is a valid target about half the time, so this avoids building a
  // candidate pool of N entries every gossip round (the hot path of the
  // whole simulation).
  const NodeCache& cache = caches_[node];
  const std::size_t n = caches_.size();
  std::vector<NodeId> out;
  out.reserve(count);
  for (std::size_t attempt = 0; attempt < 16 * count + 64 && out.size() < count;
       ++attempt) {
    const NodeId candidate = static_cast<NodeId>(rng.next_below(n));
    if (candidate == node) continue;
    const auto* entry = cache.find(candidate);
    if (entry == nullptr || !entry->alive) continue;
    bool duplicate = false;
    for (NodeId existing : out) {
      if (existing == candidate) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.push_back(candidate);
  }
  return out;
}

void GossipMembership::send_records(NodeId from, NodeId to,
                                    std::uint8_t kind,
                                    const std::vector<NodeId>& subjects) {
  const SimTime now = simulator_.now();
  Bytes msg;
  msg.reserve(3 + (subjects.size() + 1) * kRecordWireSize);
  msg.push_back(kind);

  // Sender's own record always rides along ("includes dt_alive in every
  // packet it sends").
  std::vector<std::pair<NodeId, LivenessInfo>> records;
  records.reserve(subjects.size() + 1);
  LivenessInfo own;
  own.alive = true;
  own.dt_alive = own_uptime(from);
  own.dt_since = 0;
  records.emplace_back(from, own);
  for (NodeId subject : subjects) {
    if (subject == from) continue;
    const auto obs = caches_[from].observation(subject, now);
    if (obs.has_value()) records.emplace_back(subject, *obs);
  }

  put_u16be(msg, static_cast<std::uint16_t>(records.size()));
  for (const auto& [subject, info] : records) {
    encode_record(msg, subject, info);
  }
  demux_.send(net::Channel::kGossip, from, to, msg);
  ++messages_sent_;
  bytes_sent_ += msg.size();
}

void GossipMembership::gossip_tick(NodeId node) {
  if (!churn_.is_up(node)) return;

  // Drain up to kMaxRumors from the hot queue.
  std::vector<NodeId> subjects;
  auto& queue = rumor_queues_[node];
  auto& members = rumor_members_[node];
  std::size_t scanned = 0;
  const std::size_t limit = queue.size();
  while (!queue.empty() && subjects.size() < kMaxRumors &&
         scanned < limit) {
    Rumor rumor = queue.front();
    queue.pop_front();
    ++scanned;
    subjects.push_back(rumor.subject);
    if (--rumor.remaining > 0) {
      queue.push_back(rumor);
    } else {
      members.erase(rumor.subject);
    }
  }

  // Anti-entropy: sweep the id space round-robin so every subject's record
  // is refreshed on a bounded cycle (uniform staleness; see GossipConfig).
  const std::size_t n = caches_.size();
  const NodeCache& cache = caches_[node];
  std::size_t added = 0;
  std::size_t scanned_ids = 0;
  NodeId cursor = refresh_cursors_[node];
  while (added < config_.refresh_records && scanned_ids < n) {
    const NodeId candidate = cursor;
    cursor = static_cast<NodeId>((cursor + 1) % n);
    ++scanned_ids;
    if (candidate == node || cache.find(candidate) == nullptr) continue;
    subjects.push_back(candidate);
    ++added;
  }
  refresh_cursors_[node] = cursor;

  for (NodeId target :
       pick_gossip_targets(node, kFanout, decision_rng(node))) {
    send_records(node, target, kKindGossip, subjects);
  }
}

// --- anti-entropy repair (DESIGN §9) ---------------------------------------

std::vector<std::uint64_t> GossipMembership::compute_digest(
    NodeId node) const {
  // Per-bucket XOR fold of h(subject, believed-alive) over known entries.
  // Deliberately excludes the dt fields: those differ between any two
  // caches almost always (local staleness), and a digest over them would
  // flag every bucket every round. Alive/dead belief is the state whose
  // divergence anti-entropy exists to heal.
  std::vector<std::uint64_t> buckets(kDigestBuckets, 0);
  const NodeCache& cache = caches_[node];
  const std::size_t n = caches_.size();
  for (NodeId subject = 0; subject < n; ++subject) {
    const auto* entry = cache.find(subject);
    if (entry == nullptr) continue;
    const std::uint64_t h =
        mix64(static_cast<std::uint64_t>(subject) * 2 +
              (entry->alive ? 1 : 0));
    buckets[subject % kDigestBuckets] ^= h;
  }
  return buckets;
}

void GossipMembership::send_digest(NodeId from, NodeId to,
                                   std::uint8_t kind) {
  const auto buckets = compute_digest(from);
  Bytes msg;
  msg.reserve(3 + buckets.size() * 8);
  msg.push_back(kind);
  put_u16be(msg, static_cast<std::uint16_t>(buckets.size()));
  for (std::uint64_t b : buckets) put_u64be(msg, b);
  demux_.send(net::Channel::kGossip, from, to, msg);
  ++messages_sent_;
  bytes_sent_ += msg.size();
  ++control_stats_.digests_sent;
}

void GossipMembership::anti_entropy_tick(NodeId node) {
  if (!churn_.is_up(node)) return;
  const auto partners = pick_gossip_targets(node, 1, node_rngs_[node]);
  if (partners.empty()) return;
  ++control_stats_.anti_entropy_rounds;
  send_digest(node, partners.front(), kKindDigest);
}

void GossipMembership::handle_digest(NodeId from, NodeId to, ByteView payload,
                                     bool reply_with_digest) {
  if (payload.size() < 3) return;
  const std::size_t count = get_u16be(payload, 1);
  if (count == 0 || payload.size() < 3 + count * 8) return;
  const auto own = compute_digest(to);
  // Every node folds into kDigestBuckets slots; a truncated or malformed
  // digest is compared only over the common prefix.
  const std::size_t buckets = std::min(own.size(), count);
  std::vector<bool> differs(buckets, false);
  bool any = false;
  for (std::size_t b = 0; b < buckets; ++b) {
    if (own[b] != get_u64be(payload, 3 + b * 8)) {
      differs[b] = true;
      any = true;
    }
  }
  if (any) {
    // Push our records for every differing bucket; the peer's merge rules
    // keep whichever side is fresher, so pushing is safe even when the
    // peer is the one with better information.
    std::vector<NodeId> chunk;
    const std::size_t n = caches_.size();
    for (NodeId subject = 0; subject < n; ++subject) {
      if (subject == to) continue;
      const std::size_t idx = subject % kDigestBuckets;
      if (idx >= buckets || !differs[idx]) continue;
      if (caches_[to].find(subject) == nullptr) continue;
      chunk.push_back(subject);
      ++control_stats_.repair_records_sent;
      if (chunk.size() == kRecordChunk) {
        send_records(to, from, kKindRepair, chunk);
        chunk.clear();
      }
    }
    if (!chunk.empty()) send_records(to, from, kKindRepair, chunk);
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
    const auto known = caches_[to].known_nodes();
    std::vector<NodeId> chunk;
    for (NodeId subject : known) {
      chunk.push_back(subject);
      if (chunk.size() == kRecordChunk) {
        send_records(to, from, kKindSyncResponse, chunk);
        chunk.clear();
      }
    }
    if (!chunk.empty()) send_records(to, from, kKindSyncResponse, chunk);
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
  if (payload.size() < 3) return;
  const std::size_t count = get_u16be(payload, 1);
  std::vector<DecodedRecord> records;
  if (!decode_records(payload, 3, count, records)) return;

  NodeCache& cache = caches_[to];
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& rec = records[i];
    if (rec.subject == to) continue;
    const auto* prior = cache.find(rec.subject);
    const bool prior_alive = prior != nullptr && prior->alive;
    const bool prior_known = prior != nullptr;
    bool accepted;
    if (i == 0 && rec.subject == from) {
      // Sender's own record: a direct observation.
      cache.heard_directly(from, rec.info.dt_alive, now);
      accepted = true;
    } else {
      accepted = cache.merge_indirect(rec.subject, rec.info, now);
    }
    if (accepted && kind == kKindRepair) {
      ++control_stats_.repair_records_accepted;
    }
    // Re-gossip accepted *state changes* (alive flips or first sightings);
    // routine freshness updates don't need rumor amplification, and sync
    // responses never re-gossip. Repair-healed flips DO re-gossip: a node
    // whose blackout just ended is the best seed for spreading the healed
    // state onward.
    const bool changed = !prior_known || prior_alive != rec.info.alive;
    if (accepted && changed &&
        (kind == kKindGossip || kind == kKindRepair)) {
      enqueue_rumor(to, rec.subject);
    }
  }
}

double GossipMembership::belief_accuracy() const {
  const std::size_t n = caches_.size();
  std::uint64_t correct = 0;
  std::uint64_t total = 0;
  for (NodeId owner = 0; owner < n; ++owner) {
    if (!churn_.is_up(owner)) continue;
    for (NodeId subject = 0; subject < n; ++subject) {
      if (subject == owner) continue;
      const auto* entry = caches_[owner].find(subject);
      const bool believed_alive = entry != nullptr && entry->alive;
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
  rumor_bytes += obs::capacity::vector_bytes(rumor_members_);
  for (const auto& members : rumor_members_) {
    rumor_bytes += obs::capacity::hash_map_bytes(members);
  }
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
