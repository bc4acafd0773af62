#include "fault/faulty_transport.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "net/demux.hpp"
#include "net/liveness_wire.hpp"
#include "obs/trace.hpp"

namespace p2panon::fault {

namespace {

bool in_window(SimTime start, SimTime end, SimTime now) {
  return now >= start && now < end;
}

bool matches(const std::vector<NodeId>& nodes, NodeId node) {
  return nodes.empty() ||
         std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

namespace wire = net::liveness_wire;

// A gossip datagram is the demux channel byte, then a liveness message:
// [channel u8][kind u8][count u16be][record 0][record 1]...
constexpr std::size_t kGossipHeaderSize = 1 + wire::kHeaderSize;

std::size_t declared_count(const Bytes& payload) {
  return load_u16be(payload.data() + 1 + wire::kCountOffset);
}

std::uint8_t* record_at(Bytes& payload, std::size_t index) {
  return payload.data() + kGossipHeaderSize + index * wire::kRecordSize;
}

// True when the payload is structurally a record-bearing gossip message:
// the declared record count exactly accounts for every byte past the
// header. Digest/repair-control messages (whose bodies are bucket hashes,
// not 21-byte records) never satisfy this, so mutation rules skip them.
bool is_record_bearing(const Bytes& payload) {
  if (payload.size() < kGossipHeaderSize + wire::kRecordSize) return false;
  const std::size_t count = declared_count(payload);
  return count > 0 &&
         kGossipHeaderSize + count * wire::kRecordSize == payload.size();
}

}  // namespace

FaultyTransport::FaultyTransport(net::Transport& inner, const FaultPlan& plan,
                                 std::uint64_t seed, sim::Simulator* simulator,
                                 obs::Registry* metrics)
    : inner_(inner),
      plan_(plan),
      simulator_(simulator),
      metrics_(metrics != nullptr ? metrics : &obs::Registry::global()),
      rng_(seed) {
  obs::Registry* reg = metrics_;
  inj_crash_ =
      reg->counter("fault_injections_total", {{"kind", "dropped_crash"}});
  inj_partition_ =
      reg->counter("fault_injections_total", {{"kind", "dropped_partition"}});
  inj_loss_ =
      reg->counter("fault_injections_total", {{"kind", "dropped_loss"}});
  inj_duplicated_ =
      reg->counter("fault_injections_total", {{"kind", "duplicated"}});
  inj_delayed_ = reg->counter("fault_injections_total", {{"kind", "delayed"}});
  inj_corrupted_ =
      reg->counter("fault_injections_total", {{"kind", "corrupted"}});
  extra_delay_us_ = reg->histogram("fault_extra_delay_us");
}

void FaultyTransport::record_injection(const char* kind, obs::Counter* mirror,
                                       NodeId from, NodeId to) {
  mirror->inc();
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::TraceArgs args;
    args.add("kind", kind)
        .add("from", static_cast<std::uint64_t>(from))
        .add("to", static_cast<std::uint64_t>(to));
    tracer.instant("fault", "inject", obs::current_correlation(), args);
  }
}

void FaultyTransport::register_handler(NodeId node, Handler handler) {
  inner_.register_handler(node, std::move(handler));
}

void FaultyTransport::send(NodeId from, NodeId to, Bytes payload) {
  ++messages_sent_;
  bytes_sent_ += payload.size();

  const SimTime when = now();

  // Crash windows: the plan is also bridged into the liveness oracle (so
  // in-flight messages die at delivery time), but dropping here keeps the
  // semantics under transports with no oracle (in-process test ones) and
  // attributes the drop to its cause.
  if (!plan_.crashes().empty() &&
      (plan_.is_crashed(from, when) || plan_.is_crashed(to, when))) {
    ++counters_.dropped_crash;
    record_injection("dropped_crash", inj_crash_, from, to);
    return;
  }

  if (!plan_.partitions().empty() && plan_.partitioned(from, to, when)) {
    ++counters_.dropped_partition;
    record_injection("dropped_partition", inj_partition_, from, to);
    return;
  }

  // Membership-plane rules apply only to gossip-channel datagrams, and only
  // when such rules exist — a data-plane-only plan never inspects payloads
  // or advances the RNG here.
  if (plan_.has_membership_rules() && !payload.empty() &&
      payload[0] == static_cast<std::uint8_t>(net::Channel::kGossip)) {
    if (!apply_membership_rules(from, to, payload, when)) {
      return;  // dropped by blackout or gossip loss
    }
  }

  // Everything below draws from the decorator's own RNG stream; gated on
  // rule presence so a plan without link rules advances nothing.
  SimDuration extra_delay = 0;
  for (const LinkSpikeRule& rule : plan_.link_spikes()) {
    if (!in_window(rule.start, rule.end, when)) continue;
    if (!matches(rule.endpoints, from) && !matches(rule.endpoints, to)) {
      continue;
    }
    if (rule.loss_rate > 0.0 && rng_.bernoulli(rule.loss_rate)) {
      ++counters_.dropped_loss;
      record_injection("dropped_loss", inj_loss_, from, to);
      return;
    }
    if (rule.extra_delay_max > 0) {
      extra_delay += static_cast<SimDuration>(
          rng_.next_below(static_cast<std::uint64_t>(rule.extra_delay_max) + 1));
    }
  }

  // Byzantine corruption: flip one byte of a forward-channel datagram past
  // the channel id, so a relay's AEAD peel (or the responder's sealed-core
  // open) rejects it and the drop shows up in peel-failure accounting.
  for (const CorruptRule& rule : plan_.corrupts()) {
    if (!in_window(rule.start, rule.end, when)) continue;
    if (!matches(rule.at_nodes, from)) continue;
    if (payload.size() < 2 ||
        payload[0] != static_cast<std::uint8_t>(net::Channel::kAnonForward)) {
      continue;
    }
    if (rng_.bernoulli(rule.probability)) {
      const std::size_t index = 1 + rng_.next_below(payload.size() - 1);
      payload[index] ^= static_cast<std::uint8_t>(1 + rng_.next_below(255));
      ++counters_.corrupted;
      ++corrupted_by_node_[from];
      obs::Counter*& node_ctr = corrupt_node_ctrs_[from];
      if (node_ctr == nullptr) {
        node_ctr = metrics_->counter("fault_corruptions_total",
                                     {{"node", std::to_string(from)}});
      }
      node_ctr->inc();
      record_injection("corrupted", inj_corrupted_, from, to);
      break;  // one flip is enough to invalidate the AEAD tag
    }
  }

  bool duplicate = false;
  for (const DuplicateRule& rule : plan_.duplicates()) {
    if (!in_window(rule.start, rule.end, when)) continue;
    if (rng_.bernoulli(rule.probability)) {
      duplicate = true;
      break;
    }
  }

  for (const ReorderRule& rule : plan_.reorders()) {
    if (!in_window(rule.start, rule.end, when)) continue;
    if (rule.max_extra_delay > 0 && rng_.bernoulli(rule.probability)) {
      extra_delay += static_cast<SimDuration>(rng_.next_below(
          static_cast<std::uint64_t>(rule.max_extra_delay) + 1));
      ++counters_.delayed;
      record_injection("delayed", inj_delayed_, from, to);
    }
  }
  if (extra_delay > 0) {
    extra_delay_us_->record(static_cast<std::uint64_t>(extra_delay));
  }

  if (duplicate) {
    ++counters_.duplicated;
    record_injection("duplicated", inj_duplicated_, from, to);
    dispatch(from, to, payload, extra_delay);
  }
  dispatch(from, to, std::move(payload), extra_delay);
}

bool FaultyTransport::apply_membership_rules(NodeId from, NodeId to,
                                             Bytes& payload, SimTime when) {
  for (const GossipBlackoutRule& rule : plan_.gossip_blackouts()) {
    if (!in_window(rule.start, rule.end, when)) continue;
    if (!matches(rule.endpoints, from) && !matches(rule.endpoints, to)) {
      continue;
    }
    ++counters_.dropped_gossip_blackout;
    if (inj_gossip_blackout_ == nullptr) {
      inj_gossip_blackout_ = metrics_->counter("fault_injections_total",
                                               {{"kind", "gossip_blackout"}});
    }
    record_injection("gossip_blackout", inj_gossip_blackout_, from, to);
    return false;
  }

  for (const GossipLossRule& rule : plan_.gossip_losses()) {
    if (!in_window(rule.start, rule.end, when)) continue;
    if (!matches(rule.endpoints, from) && !matches(rule.endpoints, to)) {
      continue;
    }
    if (rule.loss_rate > 0.0 && rng_.bernoulli(rule.loss_rate)) {
      ++counters_.dropped_gossip_loss;
      if (inj_gossip_loss_ == nullptr) {
        inj_gossip_loss_ = metrics_->counter("fault_injections_total",
                                             {{"kind", "gossip_loss"}});
      }
      record_injection("gossip_loss", inj_gossip_loss_, from, to);
      return false;
    }
  }

  // Record mutation applies only to structurally record-bearing messages;
  // anti-entropy digests and other control shapes pass through untouched.
  const bool mutate = (!plan_.stale_injects().empty() ||
                       !plan_.claim_inflates().empty()) &&
                      is_record_bearing(payload);
  if (!mutate) return true;
  const std::size_t count = declared_count(payload);

  for (const StaleInjectRule& rule : plan_.stale_injects()) {
    if (!in_window(rule.start, rule.end, when)) continue;
    if (!matches(rule.at_nodes, from)) continue;
    for (std::size_t i = 0; i < count; ++i) {
      if (!rng_.bernoulli(rule.probability)) continue;
      std::uint8_t* dt_since = record_at(payload, i) + wire::kDtSinceOffset;
      store_u64be(dt_since,
                  load_u64be(dt_since) +
                      static_cast<std::uint64_t>(rule.extra_staleness));
      ++counters_.stale_injected;
      if (inj_stale_ == nullptr) {
        inj_stale_ = metrics_->counter("fault_injections_total",
                                       {{"kind", "stale_injected"}});
      }
      record_injection("stale_injected", inj_stale_, from, to);
    }
  }

  for (const ClaimInflateRule& rule : plan_.claim_inflates()) {
    if (!in_window(rule.start, rule.end, when)) continue;
    if (!matches(rule.at_nodes, from)) continue;
    // Only the sender's own first-person record (always record 0 when
    // present) is inflated — the attack is a node lying about itself.
    std::uint8_t* own = record_at(payload, 0);
    if (load_u32be(own + wire::kSubjectOffset) != from) continue;
    if (!rng_.bernoulli(rule.probability)) continue;
    const double inflated =
        static_cast<double>(load_u64be(own + wire::kDtAliveOffset)) *
            rule.factor +
        static_cast<double>(rule.boost);
    store_u64be(own + wire::kDtAliveOffset,
                static_cast<std::uint64_t>(inflated));
    ++counters_.claims_inflated;
    if (inj_inflate_ == nullptr) {
      inj_inflate_ = metrics_->counter("fault_injections_total",
                                       {{"kind", "claim_inflated"}});
    }
    record_injection("claim_inflated", inj_inflate_, from, to);
  }
  return true;
}

void FaultyTransport::dispatch(NodeId from, NodeId to, Bytes payload,
                               SimDuration extra) {
  if (extra > 0 && simulator_ != nullptr) {
    static const auto kRedeliverEvent =
        obs::capacity::event_type("fault.redeliver");
    simulator_->schedule_after(
        extra,
        [this, from, to, data = std::move(payload)]() mutable {
          inner_.send(from, to, std::move(data));
        },
        kRedeliverEvent);
    return;
  }
  inner_.send(from, to, std::move(payload));
}

}  // namespace p2panon::fault
