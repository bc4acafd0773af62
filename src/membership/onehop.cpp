#include "membership/onehop.hpp"

#include <algorithm>

#include "membership/gossip.hpp"  // helpers shared with gossip
#include "obs/capacity/census.hpp"

namespace p2panon::membership {

namespace {
constexpr std::uint8_t kKindEventToLeader = 1;     // observer -> own leader
constexpr std::uint8_t kKindEventInterLeader = 2;  // leader -> other leaders
constexpr std::uint8_t kKindKeepalive = 3;         // leader -> unit members
constexpr std::uint8_t kKindLeaderAnnounce = 4;    // new leader -> unit+peers

constexpr SimDuration kKeepaliveInterval = 2 * kSecond;  // leader -> members
// Failover mode: a member that hears no keepalive from its leader for
// three intervals declares the leader dead.
constexpr SimDuration kLeaderSilenceLimit = 3 * kKeepaliveInterval;
}  // namespace

OneHopMembership::OneHopMembership(sim::Simulator& simulator,
                                   net::Demux& demux,
                                   churn::ChurnModel& churn_model,
                                   OneHopConfig config, Rng rng)
    : simulator_(simulator),
      demux_(demux),
      churn_(churn_model),
      config_(config),
      rng_(rng) {
  const std::size_t n = churn_.num_nodes();
  config_.units = std::max<std::size_t>(1, std::min(config_.units, n));
  caches_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) caches_.emplace_back(n);
  pending_unit_events_.resize(config_.units);
}

std::size_t OneHopMembership::unit_of(NodeId node) const {
  const std::size_t n = caches_.size();
  const std::size_t unit_size = (n + config_.units - 1) / config_.units;
  return std::min<std::size_t>(node / unit_size, config_.units - 1);
}

std::pair<std::size_t, std::size_t> OneHopMembership::unit_range(
    std::size_t unit) const {
  const std::size_t n = caches_.size();
  const std::size_t unit_size = (n + config_.units - 1) / config_.units;
  const std::size_t begin = unit * unit_size;
  return {begin, std::min(n, begin + unit_size)};
}

NodeId OneHopMembership::unit_leader(std::size_t unit) const {
  const auto [begin, end] = unit_range(unit);
  for (std::size_t node = begin; node < end; ++node) {
    if (churn_.is_up(static_cast<NodeId>(node))) {
      return static_cast<NodeId>(node);
    }
  }
  return kInvalidNode;
}

NodeId OneHopMembership::believed_leader(NodeId observer,
                                         std::size_t unit) const {
  const auto [begin, end] = unit_range(unit);
  for (std::size_t node = begin; node < end; ++node) {
    const NodeId id = static_cast<NodeId>(node);
    if (id == observer) {
      // A node always knows its own state.
      if (churn_.is_up(observer)) return id;
      continue;
    }
    const auto* entry = caches_[observer].find(id);
    if (entry != nullptr && entry->alive) return id;
  }
  return kInvalidNode;
}

void OneHopMembership::start() {
  seed_from_ground_truth(caches_, churn_, simulator_.now());

  demux_.set_handler(net::Channel::kGossip,
                     [this](NodeId from, NodeId to, ByteView payload) {
                       handle_message(from, to, payload);
                     });

  churn_.subscribe([this](NodeId node, bool up, SimTime when) {
    on_churn(node, up, when);
  });

  if (config_.deterministic_failover) {
    // Failover mode replaces the per-unit ground-truth keepalive tasks
    // with a per-node watchdog: whoever believes itself leader does
    // keepalive duty (including empty heartbeats, so silence is a
    // signal), and members time the leader out after kLeaderSilenceLimit.
    // Task phases come from deterministic per-node streams.
    const std::size_t n = caches_.size();
    node_rngs_ = node_streams(rng_, n);
    last_leader_heard_.assign(n, simulator_.now());
    static const auto kWatchdogEvent =
        obs::capacity::event_type("onehop.watchdog");
    watchdog_tasks_.reserve(n);
    for (NodeId node = 0; node < n; ++node) {
      auto task = std::make_unique<sim::PeriodicTask>(
          simulator_, kKeepaliveInterval,
          [this, node] { watchdog_tick(node); }, kWatchdogEvent);
      task->start_at(
          simulator_.now() +
          static_cast<SimDuration>(node_rngs_[node].next_below(
              static_cast<std::uint64_t>(kKeepaliveInterval))));
      watchdog_tasks_.push_back(std::move(task));
    }
    return;
  }

  static const auto kKeepaliveEvent =
      obs::capacity::event_type("onehop.keepalive");
  keepalive_tasks_.reserve(config_.units);
  for (std::size_t unit = 0; unit < config_.units; ++unit) {
    auto task = std::make_unique<sim::PeriodicTask>(
        simulator_, kKeepaliveInterval,
        [this, unit] { keepalive_tick(unit); }, kKeepaliveEvent);
    task->start_at(simulator_.now() +
                   static_cast<SimDuration>(rng_.next_below(
                       static_cast<std::uint64_t>(kKeepaliveInterval))));
    keepalive_tasks_.push_back(std::move(task));
  }
}

SimDuration OneHopMembership::own_uptime(NodeId node) const {
  return from_seconds(churn_.alive_seconds(node, simulator_.now()));
}

void OneHopMembership::send_snapshot(NodeId leader, NodeId joiner) {
  const SimTime now = simulator_.now();
  const auto known = caches_[leader].known_nodes();
  Bytes msg;
  std::vector<std::pair<NodeId, LivenessInfo>> records;
  for (NodeId subject : known) {
    if (subject == joiner) continue;
    const auto obs = caches_[leader].observation(subject, now);
    if (obs.has_value()) records.emplace_back(subject, *obs);
    if (records.size() == 512) {
      // Chunk very large snapshots.
      msg.clear();
      msg.push_back(kKindKeepalive);
      put_u16be(msg, static_cast<std::uint16_t>(records.size()));
      for (const auto& [s, info] : records) encode_record(msg, s, info);
      demux_.send(net::Channel::kGossip, leader, joiner, msg);
      ++messages_sent_;
      bytes_sent_ += msg.size();
      records.clear();
    }
  }
  if (!records.empty()) {
    msg.clear();
    msg.push_back(kKindKeepalive);
    put_u16be(msg, static_cast<std::uint16_t>(records.size()));
    for (const auto& [s, info] : records) encode_record(msg, s, info);
    demux_.send(net::Channel::kGossip, leader, joiner, msg);
    ++messages_sent_;
    bytes_sent_ += msg.size();
  }
}

void OneHopMembership::send_event(NodeId from, NodeId to, std::uint8_t kind,
                                  NodeId subject, const LivenessInfo& info) {
  Bytes msg;
  msg.reserve(1 + kRecordWireSize);
  msg.push_back(kind);
  put_u16be(msg, 1);
  encode_record(msg, subject, info);
  demux_.send(net::Channel::kGossip, from, to, msg);
  ++messages_sent_;
  bytes_sent_ += msg.size();
}

void OneHopMembership::on_churn(NodeId node, bool up, SimTime when) {
  (void)when;
  if (up) {
    // A rejoiner's leader-silence clock restarts: it has not heard anyone
    // while down, and must not fail its leader over before the first
    // keepalive has had a chance to arrive.
    if (config_.deterministic_failover) {
      last_leader_heard_[node] = simulator_.now();
    }
    // The joiner reports to its unit leader directly.
    deliver_event(node, node);
    return;
  }
  // A leave is noticed by the unit leader's keepalive machinery after a
  // short detection delay.
  const SimDuration delay = detection_delay(rng_);
  static const auto kDetectEvent = obs::capacity::event_type("onehop.detect");
  simulator_.schedule_after(
      delay,
      [this, node] {
        if (churn_.is_up(node)) return;
        const NodeId leader = unit_leader(unit_of(node));
        if (leader == kInvalidNode) return;
        caches_[leader].heard_left_directly(node, simulator_.now());
        deliver_event(leader, node);
      },
      kDetectEvent);
}

void OneHopMembership::deliver_event(NodeId observer, NodeId subject) {
  // Failover mode routes by the observer's *belief*; ground-truth mode by
  // churn state (the seed's simulator shortcut).
  const std::size_t own_unit = unit_of(observer);
  const NodeId leader = config_.deterministic_failover
                            ? believed_leader(observer, own_unit)
                            : unit_leader(own_unit);
  if (leader == kInvalidNode) return;
  LivenessInfo info;
  if (observer == subject) {
    info.alive = true;
    info.dt_alive = own_uptime(subject);
    info.dt_since = 0;
  } else {
    const auto obs = caches_[observer].observation(subject, simulator_.now());
    if (!obs.has_value()) return;
    info = *obs;
  }
  if (leader == observer) {
    // Already at the leader: fan out to other unit leaders.
    for (std::size_t unit = 0; unit < config_.units; ++unit) {
      const NodeId other = config_.deterministic_failover
                               ? believed_leader(observer, unit)
                               : unit_leader(unit);
      if (other == kInvalidNode || other == leader) continue;
      send_event(leader, other, kKindEventInterLeader, subject, info);
    }
    pending_unit_events_[unit_of(leader)].push_back(subject);
  } else {
    send_event(observer, leader, kKindEventToLeader, subject, info);
  }
}

void OneHopMembership::keepalive_tick(std::size_t unit) {
  const NodeId leader = unit_leader(unit);
  if (leader == kInvalidNode) return;
  if (pending_unit_events_[unit].empty()) return;
  keepalive_send(leader, unit, /*always_send=*/false);
}

void OneHopMembership::keepalive_send(NodeId leader, std::size_t unit,
                                      bool always_send) {
  auto& pending = pending_unit_events_[unit];
  if (pending.empty() && !always_send) return;
  std::sort(pending.begin(), pending.end());
  pending.erase(std::unique(pending.begin(), pending.end()), pending.end());

  const SimTime now = simulator_.now();
  const auto [begin, end] = unit_range(unit);

  Bytes msg;
  msg.push_back(kKindKeepalive);
  std::vector<std::pair<NodeId, LivenessInfo>> records;
  records.reserve(pending.size() + 1);
  LivenessInfo own;
  own.alive = true;
  own.dt_alive = own_uptime(leader);
  own.dt_since = 0;
  records.emplace_back(leader, own);
  for (NodeId subject : pending) {
    const auto obs = caches_[leader].observation(subject, now);
    if (obs.has_value()) records.emplace_back(subject, *obs);
  }
  put_u16be(msg, static_cast<std::uint16_t>(records.size()));
  for (const auto& [subject, info] : records) {
    encode_record(msg, subject, info);
  }

  for (std::size_t member = begin; member < end; ++member) {
    const NodeId id = static_cast<NodeId>(member);
    if (id == leader) continue;
    if (config_.deterministic_failover) {
      // Belief-routed: a leader cannot consult ground truth for its
      // members any more than for anything else; sends to dead members
      // are dropped by the transport.
      const auto* entry = caches_[leader].find(id);
      if (entry == nullptr || !entry->alive) continue;
    } else if (!churn_.is_up(id)) {
      continue;
    }
    demux_.send(net::Channel::kGossip, leader, id, msg);
    ++messages_sent_;
    bytes_sent_ += msg.size();
  }
  pending.clear();
}

void OneHopMembership::watchdog_tick(NodeId node) {
  if (!churn_.is_up(node)) return;
  const std::size_t unit = unit_of(node);
  const SimTime now = simulator_.now();
  const NodeId bleader = believed_leader(node, unit);
  if (bleader == node) {
    // Self-believed leader does keepalive duty — always, so members can
    // read silence as failure.
    keepalive_send(node, unit, /*always_send=*/true);
    last_leader_heard_[node] = now;
    return;
  }
  if (bleader == kInvalidNode) return;
  const SimDuration silence = now - last_leader_heard_[node];
  if (silence <= kLeaderSilenceLimit) return;
  // Leader silent too long: declare it dead locally and re-elect. The
  // lowest-id rule means every member with the same beliefs elects the
  // same successor; only the successor itself announces.
  caches_[node].heard_left_directly(bleader, now);
  last_leader_heard_[node] = now;  // restart the clock for the successor
  const NodeId next = believed_leader(node, unit);
  if (next == node) {
    ++control_stats_.elections;
    announce_leader(node, unit);
  }
}

void OneHopMembership::announce_leader(NodeId node, std::size_t unit) {
  const SimTime now = simulator_.now();
  const auto [begin, end] = unit_range(unit);

  // The announcement carries the announcer's own record plus its view of
  // every lower-id unit member (the predecessors it believes dead), so
  // receivers that still trusted a dead predecessor converge in one hop
  // instead of timing each predecessor out in sequence.
  Bytes msg;
  msg.push_back(kKindLeaderAnnounce);
  std::vector<std::pair<NodeId, LivenessInfo>> records;
  LivenessInfo own;
  own.alive = true;
  own.dt_alive = own_uptime(node);
  own.dt_since = 0;
  records.emplace_back(node, own);
  for (std::size_t id = begin; id < static_cast<std::size_t>(node); ++id) {
    const auto obs = caches_[node].observation(static_cast<NodeId>(id), now);
    if (obs.has_value()) records.emplace_back(static_cast<NodeId>(id), *obs);
  }
  put_u16be(msg, static_cast<std::uint16_t>(records.size()));
  for (const auto& [subject, info] : records) {
    encode_record(msg, subject, info);
  }

  // Unit members we believe alive, plus every other unit's believed leader
  // (so inter-leader event routing finds us).
  for (std::size_t member = begin; member < end; ++member) {
    const NodeId id = static_cast<NodeId>(member);
    if (id == node) continue;
    const auto* entry = caches_[node].find(id);
    if (entry == nullptr || !entry->alive) continue;
    demux_.send(net::Channel::kGossip, node, id, msg);
    ++messages_sent_;
    bytes_sent_ += msg.size();
    ++control_stats_.leader_announcements;
  }
  for (std::size_t other = 0; other < config_.units; ++other) {
    if (other == unit) continue;
    const NodeId peer = believed_leader(node, other);
    if (peer == kInvalidNode) continue;
    demux_.send(net::Channel::kGossip, node, peer, msg);
    ++messages_sent_;
    bytes_sent_ += msg.size();
    ++control_stats_.leader_announcements;
  }
}

void OneHopMembership::handle_message(NodeId from, NodeId to,
                                      ByteView payload) {
  if (!churn_.is_up(to) || payload.size() < 3) return;
  const std::uint8_t kind = payload[0];
  const std::size_t count = get_u16be(payload, 1);
  std::vector<DecodedRecord> records;
  if (!decode_records(payload, 3, count, records)) return;
  const SimTime now = simulator_.now();

  // Failover mode: a keepalive or announcement from a same-unit peer is
  // proof of an acting leader — reset the silence clock.
  if (config_.deterministic_failover &&
      (kind == kKindKeepalive || kind == kKindLeaderAnnounce) &&
      unit_of(from) == unit_of(to)) {
    last_leader_heard_[to] = now;
  }

  NodeCache& cache = caches_[to];
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& rec = records[i];
    if (rec.subject == to) continue;
    if (i == 0 && rec.subject == from && rec.info.dt_since == 0) {
      cache.heard_directly(from, rec.info.dt_alive, now);
    } else {
      cache.merge_indirect(rec.subject, rec.info, now);
    }
    if (kind == kKindEventToLeader || kind == kKindEventInterLeader) {
      // Leaders queue accepted events for their unit keepalive; an event
      // arriving from another unit's observer also fans out inter-leader
      // when we are the first leader to see it.
      pending_unit_events_[unit_of(to)].push_back(rec.subject);
      if (kind == kKindEventToLeader) {
        const auto obs = cache.observation(rec.subject, now);
        if (obs.has_value()) {
          for (std::size_t unit = 0; unit < config_.units; ++unit) {
            const NodeId other = config_.deterministic_failover
                                     ? believed_leader(to, unit)
                                     : unit_leader(unit);
            if (other == kInvalidNode || other == to) continue;
            send_event(to, other, kKindEventInterLeader, rec.subject, *obs);
          }
        }
        // A join announcement (the subject reporting itself): hand the
        // joiner a fresh membership snapshot, as OneHop's join protocol
        // downloads the membership table from a neighbor.
        if (rec.subject == from && rec.info.alive) {
          send_snapshot(to, from);
        }
      }
    }
  }
}

double OneHopMembership::belief_accuracy() const {
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

void OneHopMembership::byte_census(obs::capacity::ByteCensus& census) const {
  std::uint64_t cache_bytes = obs::capacity::vector_bytes(caches_);
  for (const NodeCache& cache : caches_) cache_bytes += cache.memory_bytes();
  census.add("membership", "node_caches", cache_bytes);

  std::uint64_t pending_bytes =
      obs::capacity::vector_bytes(pending_unit_events_);
  for (const auto& events : pending_unit_events_) {
    pending_bytes += obs::capacity::vector_bytes(events);
  }
  census.add("membership", "pending_unit_events", pending_bytes);

  census.add("membership", "node_rngs",
             obs::capacity::vector_bytes(node_rngs_) +
                 obs::capacity::vector_bytes(last_leader_heard_));
  census.add("membership", "keepalive_tasks",
             obs::capacity::vector_bytes(keepalive_tasks_) +
                 obs::capacity::vector_bytes(watchdog_tasks_) +
                 (keepalive_tasks_.size() + watchdog_tasks_.size()) *
                     sizeof(sim::PeriodicTask));
}

}  // namespace p2panon::membership
