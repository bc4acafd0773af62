#include "anon/router.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hpp"
#include "erasure/verified_decode.hpp"
#include "obs/capacity/census.hpp"
#include "obs/trace.hpp"

namespace p2panon::anon {

namespace {

using wire::FrameType;

static_assert(static_cast<std::uint8_t>(SegmentPriority::kControl) ==
              wire::kMaxClass);

// Decode-attempt budget for the digest-validated subset search
// (erasure/verified_decode) over a tagged reassembly.
constexpr std::size_t kMaxDecodeSubsets = 24;

// Segments per second a relay queue drains under every policy but kOff.
constexpr double kRelayDrainPerSecond = 10.0;

/// Zero-sim-duration async span bracketing one relay's processing of a
/// datagram; only reached behind an enabled() check. Keeps the per-hop peel
/// visible on the message's correlation chain.
class HopRelaySpan {
 public:
  HopRelaySpan(NodeId node, const char* kind)
      : corr_(obs::current_correlation()) {
    obs::TraceArgs args;
    args.add("node", static_cast<std::uint64_t>(node)).add("kind", kind);
    obs::Tracer::instance().span_begin("anon", "hop_relay", corr_, args);
  }
  ~HopRelaySpan() {
    obs::Tracer::instance().span_end("anon", "hop_relay", corr_);
  }

 private:
  obs::CorrelationId corr_;
};

}  // namespace

Bytes serialize_reverse_core(const ReverseCore& core) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(core.type));
  put_u64be(out, core.message_id);
  put_u32be(out, core.segment_index);
  if (core.type == ReverseCore::Type::kResponseSegment) {
    put_u32be(out, core.response_id);
    put_u32be(out, core.original_size);
    put_u16be(out, core.needed_segments);
    put_u16be(out, core.total_segments);
    put_u32be(out, static_cast<std::uint32_t>(core.segment.size()));
    append(out, core.segment);
  }
  return out;
}

std::optional<ReverseCore> parse_reverse_core(ByteView plain) {
  if (plain.size() < wire::kRevHeaderSize) return std::nullopt;
  ReverseCore core;
  const std::uint8_t type = plain[0];
  if (type < static_cast<std::uint8_t>(ReverseCore::Type::kAck) ||
      type > static_cast<std::uint8_t>(ReverseCore::Type::kCorruptNack)) {
    return std::nullopt;
  }
  core.type = static_cast<ReverseCore::Type>(type);
  core.message_id = get_u64be(plain, wire::kRevMessageIdOffset);
  core.segment_index = get_u32be(plain, wire::kRevIndexOffset);
  if (core.type == ReverseCore::Type::kAck ||
      core.type == ReverseCore::Type::kCorruptNack) {
    return plain.size() == wire::kRevHeaderSize
               ? std::optional<ReverseCore>(core)
               : std::nullopt;
  }
  if (plain.size() < wire::kRevResponseHeaderSize) return std::nullopt;
  core.response_id = get_u32be(plain, wire::kRevResponseIdOffset);
  core.original_size = get_u32be(plain, wire::kRevOriginalSizeOffset);
  core.needed_segments = get_u16be(plain, wire::kRevNeededOffset);
  core.total_segments = get_u16be(plain, wire::kRevTotalOffset);
  const std::size_t seg_len = get_u32be(plain, wire::kRevSegmentLenOffset);
  if (plain.size() != wire::kRevResponseHeaderSize + seg_len) {
    return std::nullopt;
  }
  // Same semantic validation as parse_payload_core: make_codec throws on
  // parameters outside 1 <= m <= n <= 255, so garbage that survives the
  // framing check must be rejected here.
  if (core.needed_segments == 0 ||
      core.needed_segments > core.total_segments ||
      core.total_segments > 255 ||
      core.segment_index >= core.total_segments) {
    return std::nullopt;
  }
  const ByteView seg = plain.subspan(wire::kRevResponseHeaderSize);
  core.segment.assign(seg.begin(), seg.end());
  return core;
}

AnonRouter::AnonRouter(sim::Simulator& simulator, net::Demux& demux,
                       const OnionCodec& onion,
                       const crypto::KeyDirectory& directory,
                       std::vector<crypto::KeyPair> node_keys,
                       LivenessOracle is_up, RouterConfig config, Rng rng)
    : simulator_(simulator),
      demux_(demux),
      onion_(onion),
      directory_(directory),
      node_keys_(std::move(node_keys)),
      is_up_(std::move(is_up)),
      config_(config),
      rng_(rng),
      metrics_(config.metrics != nullptr ? config.metrics
                                         : &obs::Registry::global()),
      bytes_construct_(
          metrics_->counter("anon_bytes_total", {{"channel", "construct"}})),
      bytes_payload_(
          metrics_->counter("anon_bytes_total", {{"channel", "payload"}})),
      bytes_reverse_(
          metrics_->counter("anon_bytes_total", {{"channel", "reverse"}})),
      forwarded_ctr_(metrics_->counter("anon_messages_forwarded_total")),
      peel_failures_ctr_(metrics_->counter("anon_peel_failures_total")),
      construct_attempts_ctr_(
          metrics_->counter("anon_path_constructs_total",
                            {{"result", "started"}})),
      construct_ok_ctr_(metrics_->counter("anon_path_constructs_total",
                                          {{"result", "ok"}})),
      construct_timeout_ctr_(metrics_->counter("anon_path_constructs_total",
                                               {{"result", "failed"}})),
      reconstructions_ctr_(metrics_->counter("anon_reconstructions_total")),
      reassembly_expired_ctr_(
          metrics_->counter("anon_reassemblies_expired_total")),
      reconstruct_segments_(metrics_->histogram("anon_reconstruct_segments")),
      auth_verified_ctr_(metrics_->counter("anon_segment_auth_total",
                                           {{"result", "verified"}})),
      auth_rejected_ctr_(metrics_->counter("anon_segment_auth_total",
                                           {{"result", "rejected"}})),
      auth_nacks_ctr_(metrics_->counter("anon_segment_auth_nacks_total")),
      auth_fallback_ok_ctr_(metrics_->counter(
          "anon_segment_auth_fallback_total", {{"result", "ok"}})),
      auth_fallback_failed_ctr_(metrics_->counter(
          "anon_segment_auth_fallback_total", {{"result", "failed"}})),
      shed_ctrs_{metrics_->counter("anon_overload_sheds_total",
                                   {{"class", "bulk"}}),
                 metrics_->counter("anon_overload_sheds_total",
                                   {{"class", "streaming"}}),
                 metrics_->counter("anon_overload_sheds_total",
                                   {{"class", "interactive"}}),
                 metrics_->counter("anon_overload_sheds_total",
                                   {{"class", "control"}})},
      backpressure_ctr_(
          metrics_->counter("anon_backpressure_signals_total")) {
  const std::size_t n = node_keys_.size();
  load_.resize(n);
  tables_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) tables_.emplace_back(rng_.fork());
  pending_.resize(n);
  reverse_handlers_.resize(n);
  reassembly_.resize(n);
}

void AnonRouter::start() {
  demux_.set_handler(net::Channel::kAnonForward,
                     [this](NodeId from, NodeId to, ByteView datagram) {
                       handle(from, to, datagram, /*reverse=*/false);
                     });
  demux_.set_handler(net::Channel::kAnonReverse,
                     [this](NodeId from, NodeId to, ByteView datagram) {
                       handle(from, to, datagram, /*reverse=*/true);
                     });
  sweeper_ = std::make_unique<sim::PeriodicTask>(
      simulator_, config_.sweep_interval, [this] { sweep(); });
  sweeper_->start();
}

// --- framing --------------------------------------------------------------------

void AnonRouter::send_frame(NodeId from, NodeId to, FrameType type,
                            StreamId sid, std::uint64_t seq, ByteView body,
                            SegmentPriority priority) {
  PooledBytes lease(pool_, wire::kMaxHeaderSize + body.size());
  Bytes& frame = *lease;
  // Under kOff the framing is the paper's: no frame carries a class byte.
  std::optional<std::uint8_t> cls;
  if (config_.overload != OverloadPolicy::kOff) {
    cls = static_cast<std::uint8_t>(priority);
  }
  wire::write_header(frame, type, sid, seq, cls);
  append(frame, body);
  const bool reverse = wire::spec(type).reverse;
  if (reverse) {
    bytes_reverse_->inc(frame.size());
  } else if (type == FrameType::kConstruct) {
    construct_bytes_ += frame.size();
    bytes_construct_->inc(frame.size());
  } else if (type != FrameType::kTeardown) {
    payload_bytes_ += frame.size();
    bytes_payload_->inc(frame.size());
  }
  demux_.send(reverse ? net::Channel::kAnonReverse : net::Channel::kAnonForward,
              from, to, frame);
}

// --- initiator primitives ----------------------------------------------------------

StreamId AnonRouter::initiate_path(NodeId initiator,
                                   const std::vector<NodeId>& relays,
                                   const std::vector<RelayKey>& relay_keys,
                                   NodeId responder, SimDuration timeout,
                                   ConstructCallback callback) {
  if (relays.empty()) {
    throw std::invalid_argument("initiate_path: need at least one relay");
  }
  const Bytes onion_blob =
      onion_.build_path_onion(relays, relay_keys, responder, directory_, rng_);

  // The initiator's own sid for this path: what P_1 will see as its
  // upstream sid.
  const StreamId sid = new_initiator_sid(initiator);

  // The construction chain is correlated by the initiator-side sid: the
  // construct relays, the ack's trip back, and the timeout all inherit it
  // through the event queue.
  construct_attempts_ctr_->inc();
  obs::CorrelationScope corr_scope(sid);
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::TraceArgs args;
    args.add("initiator", static_cast<std::uint64_t>(initiator))
        .add("responder", static_cast<std::uint64_t>(responder))
        .add("hops", static_cast<std::uint64_t>(relays.size()));
    tracer.span_begin("anon", "path_construct", sid, args);
  }
  static const auto kTimeoutEvent =
      obs::capacity::event_type("router.timeout");
  PendingConstruction pending;
  pending.callback = std::move(callback);
  pending.timeout_event = simulator_.schedule_after(
      timeout,
      [this, initiator, sid] {
        finish_pending(initiator, sid, /*ok=*/false, /*timed_out=*/true);
      },
      kTimeoutEvent);
  pending_[initiator][sid] = std::move(pending);
  send_frame(initiator, relays.front(), FrameType::kConstruct, sid, 0,
             onion_blob);
  return sid;
}

void AnonRouter::finish_pending(NodeId initiator, StreamId sid, bool ok,
                                bool timed_out) {
  auto& pmap = pending_[initiator];
  const auto it = pmap.find(sid);
  if (it == pmap.end()) return;
  if (!timed_out) simulator_.cancel(it->second.timeout_event);
  ConstructCallback cb = std::move(it->second.callback);
  pmap.erase(it);
  (ok ? construct_ok_ctr_ : construct_timeout_ctr_)->inc();
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::TraceArgs args;
    args.add("ok", static_cast<std::uint64_t>(ok ? 1 : 0))
        .add("timed_out", static_cast<std::uint64_t>(timed_out ? 1 : 0));
    tracer.span_end("anon", "path_construct", sid, args);
  }
  cb(ok);
}

void AnonRouter::record_peel_failure(NodeId node, const char* where) {
  ++peel_failures_;
  peel_failures_ctr_->inc();
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::TraceArgs args;
    args.add("node", static_cast<std::uint64_t>(node)).add("where", where);
    tracer.instant("anon", "peel_fail", obs::current_correlation(), args);
  }
}

void AnonRouter::register_reverse_handler(NodeId initiator, StreamId sid,
                                          ReverseHandler handler) {
  reverse_handlers_[initiator][sid] = std::move(handler);
}

void AnonRouter::unregister_reverse_handler(NodeId initiator, StreamId sid) {
  reverse_handlers_[initiator].erase(sid);
}

void AnonRouter::send_payload(NodeId initiator, StreamId sid,
                              NodeId first_relay, std::uint64_t seq,
                              Bytes blob, bool keyed,
                              SegmentPriority priority) {
  send_frame(initiator, first_relay,
             keyed ? FrameType::kPayloadKeyed : FrameType::kPayload, sid, seq,
             blob, priority);
}

void AnonRouter::send_teardown(NodeId initiator, StreamId sid,
                               NodeId first_relay) {
  send_frame(initiator, first_relay, FrameType::kTeardown, sid, 0, {});
}

// --- receive paths -------------------------------------------------------------------

void AnonRouter::handle(NodeId from, NodeId to, ByteView datagram,
                        bool reverse) {
  const auto frame = wire::read_frame(
      datagram, reverse, config_.overload != OverloadPolicy::kOff);
  if (!frame.has_value()) return;
  const auto& [type, sid, seq, cls, body] = *frame;
  switch (type) {
    case FrameType::kConstruct:
      on_construct(from, to, sid, body);
      break;
    case FrameType::kConstructAck:
      on_construct_ack(to, sid, body[0] != 0);
      break;
    case FrameType::kPayload:
    case FrameType::kPayloadKeyed:
      on_payload(from, to, type, sid, seq, body,
                 cls.has_value() ? static_cast<SegmentPriority>(*cls)
                                 : SegmentPriority::kInteractive);
      break;
    case FrameType::kPayloadRev:
      on_payload_rev(to, sid, seq, body);
      break;
    case FrameType::kTeardown:
      on_teardown(to, sid);
      break;
    case FrameType::kConstructPayload:
      on_construct_payload(from, to, sid, seq, body);
      break;
    case FrameType::kBackpressure:
      // Only kShed relays send these; under any other policy the frame is
      // forged, and it would silence the path's stall evidence.
      if (config_.overload == OverloadPolicy::kShed) {
        on_backpressure(to, sid, body[0]);
      }
      break;
  }
}

// --- overload machinery ------------------------------------------------------

double AnonRouter::relay_queue_level(NodeId node, SimTime now) const {
  const NodeLoad& load = load_[node];
  if (now <= load.last_drain) return load.level;
  const double drained = kRelayDrainPerSecond *
                         (static_cast<double>(now - load.last_drain) /
                          static_cast<double>(kSecond));
  return std::max(0.0, load.level - drained);
}

void AnonRouter::drain_load(NodeId node) {
  NodeLoad& load = load_[node];
  const SimTime now = simulator_.now();
  load.level = relay_queue_level(node, now);
  load.last_drain = now;
}

void AnonRouter::charge_load(NodeId node) { load_[node].level += 1.0; }

bool AnonRouter::should_shed(NodeId node, SegmentPriority priority) {
  const double level = load_[node].level;
  const double cap = static_cast<double>(kRelayQueueCapacity);
  if (priority == SegmentPriority::kControl) return false;  // never
  if (config_.overload == OverloadPolicy::kTailDrop) {
    return level >= cap;  // priority-blind tail drop
  }
  // Graded thresholds: bulk gives way first, interactive only when the
  // queue is effectively full.
  switch (priority) {
    case SegmentPriority::kBulk: return level >= 0.70 * cap;
    case SegmentPriority::kStreaming: return level >= 0.85 * cap;
    case SegmentPriority::kInteractive: return level >= 0.97 * cap;
    case SegmentPriority::kControl: return false;
  }
  return false;
}

void AnonRouter::count_shed(SegmentPriority priority) {
  shed_ctrs_[static_cast<std::size_t>(priority)]->inc();
}

void AnonRouter::signal_backpressure(NodeId node, NodeId upstream,
                                     StreamId upstream_sid,
                                     SegmentPriority priority) {
  backpressure_ctr_->inc();
  send_reverse_byte(node, upstream, FrameType::kBackpressure, upstream_sid,
                    static_cast<std::uint8_t>(priority));
}

void AnonRouter::send_reverse_byte(NodeId from, NodeId to, FrameType type,
                                   StreamId sid, std::uint8_t value) {
  const std::uint8_t status[wire::kStatusSize] = {value};
  send_frame(from, to, type, sid, 0, status);
}

bool AnonRouter::relay_reverse_byte(NodeId to, FrameType type, StreamId sid,
                                    std::uint8_t value) {
  const RelayEntry* entry = tables_[to].find_by_downstream(sid);
  if (entry == nullptr) return false;
  send_reverse_byte(to, entry->upstream, type, entry->upstream_sid, value);
  return true;
}

void AnonRouter::on_backpressure(NodeId to, StreamId sid,
                                 std::uint8_t shed_class) {
  // Relay on the path: pass it on (same plain-frame chain ConstructAck
  // rides).
  if (relay_reverse_byte(to, FrameType::kBackpressure, sid, shed_class)) return;
  // Initiator: surface the signal to the session owning this path.
  const auto it = reverse_handlers_[to].find(sid);
  if (it == reverse_handlers_[to].end()) return;
  ReverseDelivery delivery;
  delivery.sid = sid;
  delivery.backpressure = true;
  it->second(delivery);
}

AnonRouter::OverloadStats AnonRouter::overload_stats(SimTime now) const {
  OverloadStats stats;
  if (config_.overload == OverloadPolicy::kOff) return stats;
  const double hot = 0.70 * static_cast<double>(kRelayQueueCapacity);
  for (NodeId node = 0; node < load_.size(); ++node) {
    const double level = relay_queue_level(node, now);
    stats.total_level += level;
    stats.max_level = std::max(stats.max_level, level);
    if (level >= hot) ++stats.hot_nodes;
  }
  return stats;
}

void AnonRouter::on_construct(NodeId from, NodeId to, StreamId sid,
                              ByteView onion_blob) {
  if (config_.overload != OverloadPolicy::kOff) {
    drain_load(to);
    charge_load(to);  // construct processing occupies the queue too
  }
  const bool traced = obs::Tracer::instance().enabled();
  std::optional<HopRelaySpan> hop_span;
  if (traced) hop_span.emplace(to, "construct");
  const auto hop = install_hop(from, to, sid, onion_blob, "construct");
  if (!hop.has_value()) return;
  if (hop->peeled.hop.last) {
    // End of the forwarding path (§4.1): the construct message stops here;
    // confirm to the initiator along the cached upstream chain.
    send_reverse_byte(to, from, FrameType::kConstructAck, sid, 1);
  } else {
    send_frame(to, hop->peeled.hop.next, FrameType::kConstruct,
               hop->down_sid, 0, hop->peeled.rest);
  }
}

std::optional<AnonRouter::InstalledHop> AnonRouter::install_hop(
    NodeId from, NodeId to, StreamId sid, ByteView onion_blob,
    const char* where) {
  auto peeled = onion_.peel_path_onion(node_keys_[to], onion_blob);
  // The next-hop check matters for codecs without authentication (the
  // statistical FastOnionCodec): a corrupted onion "peels" into garbage.
  if (!peeled.has_value() || peeled->hop.next >= node_keys_.size()) {
    record_peel_failure(to, where);
    return std::nullopt;
  }
  RelayEntry entry;
  entry.upstream = from;
  entry.upstream_sid = sid;
  entry.downstream = peeled->hop.next;
  entry.key = peeled->hop.relay_key;
  entry.last_relay = peeled->hop.last;
  const StreamId down_sid =
      tables_[to].install(std::move(entry), simulator_.now(),
                          config_.state_ttl);
  ++messages_forwarded_;
  forwarded_ctr_->inc();
  return InstalledHop{std::move(*peeled), down_sid};
}

void AnonRouter::on_construct_ack(NodeId to, StreamId sid, bool ok) {
  // Am I a relay on this path? Then map downstream sid -> upstream sid.
  if (relay_reverse_byte(to, FrameType::kConstructAck, sid, ok ? 1 : 0)) {
    return;
  }
  // Otherwise it may be addressed to me as the initiator.
  finish_pending(to, sid, ok, /*timed_out=*/false);
}

void AnonRouter::on_payload(NodeId from, NodeId to, FrameType type,
                            StreamId sid, std::uint64_t seq, ByteView blob,
                            SegmentPriority priority) {
  // Relays pass a keyed core on like a sealed one. The responder opens it
  // with its terminal entry's key, never by trying that key on a sealed
  // core: FastOnionCodec cannot authenticate, so trial decryption would
  // accept garbage.
  const bool keyed = type == FrameType::kPayloadKeyed;
  RelayEntry* entry = tables_[to].find_by_upstream(sid);
  if (entry == nullptr) {
    // First contact as the responder: the last relay has stripped every
    // layer, so `blob` should be a sealed core addressed to us. If it
    // opens, create the terminal ⊥ entry [P_L, sid_L, ⊥, R_{L+1}] (§4.4).
    // A keyed core cannot open without that entry's key.
    const auto core = keyed ? std::nullopt
                            : onion_.open_payload_core(node_keys_[to], blob);
    if (!core.has_value()) {
      record_peel_failure(to, "payload_core");
      return;
    }
    RelayEntry terminal;
    terminal.upstream = from;
    terminal.upstream_sid = sid;
    terminal.key = core->responder_key;
    tables_[to].install_terminal(std::move(terminal), simulator_.now(),
                                 config_.state_ttl);
    RelayEntry* installed = tables_[to].find_by_upstream(sid);
    deliver_to_responder(to, *installed, *core);
    return;
  }
  if (entry->at_responder) {
    // Follow-up message on an established stream.
    const auto core = keyed ? open_keyed_core(*entry, seq, blob)
                            : onion_.open_payload_core(node_keys_[to], blob);
    if (!core.has_value()) {
      record_peel_failure(to, "payload_core");
      return;
    }
    deliver_to_responder(to, *entry, *core);
    return;
  }
  tables_[to].refresh(*entry, simulator_.now(), config_.state_ttl);
  if (config_.overload != OverloadPolicy::kOff) {
    // Bounded relay queue: drain the leaky bucket, then either shed this
    // segment (before spending the peel) or charge it to the queue. The
    // drop is silent on the forward path — the initiator's segment
    // timeout covers it — but under kShed the relay tells the upstream
    // chain what class it shed.
    drain_load(to);
    if (should_shed(to, priority)) {
      count_shed(priority);
      if (config_.overload == OverloadPolicy::kShed) {
        signal_backpressure(to, entry->upstream, entry->upstream_sid,
                            priority);
      }
      return;
    }
    charge_load(to);
  }
  const bool traced = obs::Tracer::instance().enabled();
  std::optional<HopRelaySpan> hop_span;
  if (traced) hop_span.emplace(to, "payload");
  // Relay fast path: peel in place in a pooled buffer — zero heap
  // allocations per segment once the pool is warm.
  PooledBytes buf(pool_, blob.size());
  buf->assign(blob.begin(), blob.end());
  if (!onion_.unwrap_layer_in_place(entry->key, seq, *buf)) {
    record_peel_failure(to, "payload");
    return;
  }
  ++messages_forwarded_;
  forwarded_ctr_->inc();
  send_frame(to, entry->downstream, type, entry->downstream_sid, seq, *buf,
             priority);
}

std::optional<PayloadCore> AnonRouter::open_keyed_core(const RelayEntry& entry,
                                                       std::uint64_t seq,
                                                       ByteView blob) {
  PooledBytes buf(pool_, blob.size());
  buf->assign(blob.begin(), blob.end());
  if (!onion_.unwrap_layer_in_place(entry.key, seq, *buf)) return std::nullopt;
  auto core = parse_payload_core(*buf);
  // R_{L+1} is the key that opened the core. The copy inside it is
  // ignored: under a codec without authentication a flip there would
  // otherwise re-key the path (or, rejected, turn into silent loss).
  if (core.has_value()) core->responder_key = entry.key;
  return core;
}

StreamId AnonRouter::new_initiator_sid(NodeId initiator) {
  StreamId sid;
  do {
    sid = rng_.next_u64();
  } while (sid == 0 || pending_[initiator].count(sid) > 0 ||
           reverse_handlers_[initiator].count(sid) > 0);
  return sid;
}

void AnonRouter::send_construct_with_payload(NodeId initiator, StreamId sid,
                                             NodeId first_relay,
                                             std::uint64_t seq,
                                             ByteView onion_blob,
                                             ByteView payload_blob) {
  Bytes combined;
  combined.reserve(wire::kLengthPrefixSize + onion_blob.size() +
                   payload_blob.size());
  wire::append_construct_payload(combined, onion_blob, payload_blob);
  send_frame(initiator, first_relay, FrameType::kConstructPayload, sid, seq,
             combined);
}

void AnonRouter::on_construct_payload(NodeId from, NodeId to, StreamId sid,
                                      std::uint64_t seq, ByteView blob) {
  const auto parts = wire::split_construct_payload(blob);
  if (!parts.has_value()) return;
  const auto [onion_blob, payload_blob] = *parts;

  if (config_.overload != OverloadPolicy::kOff) {
    // Combined construct+payload is path (re)construction — control-plane
    // by classification, so it is charged to the queue but never shed
    // (shedding the retransmit vehicle would livelock recovery).
    drain_load(to);
    charge_load(to);
  }
  const bool traced = obs::Tracer::instance().enabled();
  std::optional<HopRelaySpan> hop_span;
  if (traced) hop_span.emplace(to, "construct_payload");
  const auto hop =
      install_hop(from, to, sid, onion_blob, "construct_payload");
  if (!hop.has_value()) return;
  const PathHop& next = hop->peeled.hop;
  const Bytes& rest = hop->peeled.rest;

  PooledBytes inner(pool_, payload_blob.size());
  inner->assign(payload_blob.begin(), payload_blob.end());
  if (!onion_.unwrap_layer_in_place(next.relay_key, seq, *inner)) {
    record_peel_failure(to, "construct_payload");
    return;
  }
  if (next.last) {
    // Construction ends here (§4.1); the stripped payload carries on to
    // the responder as a normal payload message. It keeps the control
    // classification it travelled with.
    send_frame(to, next.next, FrameType::kPayload, hop->down_sid, seq, *inner,
               SegmentPriority::kControl);
  } else {
    PooledBytes combined(pool_,
                         wire::kLengthPrefixSize + rest.size() + inner->size());
    wire::append_construct_payload(*combined, rest, *inner);
    send_frame(to, next.next, FrameType::kConstructPayload, hop->down_sid, seq,
               *combined);
  }
}

void AnonRouter::on_teardown(NodeId to, StreamId sid) {
  RelayEntry* entry = tables_[to].find_by_upstream(sid);
  if (entry == nullptr) return;
  const NodeId downstream = entry->downstream;
  const StreamId down_sid = entry->downstream_sid;
  const bool forward_on = !entry->last_relay && !entry->at_responder &&
                          downstream != kInvalidNode;
  tables_[to].release_by_upstream(sid);
  if (forward_on) {
    send_frame(to, downstream, FrameType::kTeardown, down_sid, 0, {});
  }
}

void AnonRouter::deliver_to_responder(NodeId responder, RelayEntry& entry,
                                      const PayloadCore& core_value) {
  const PayloadCore* core = &core_value;
  const SimTime now = simulator_.now();
  tables_[responder].refresh(entry, now, config_.state_ttl);

  // Segment authentication (corruption resilience): verify the tag before
  // trusting anything else in the core. The check is self-contained — the
  // auth key derives from the core's own R_{L+1}, so a flip anywhere in
  // the sealed core (the key, the erasure metadata, the digest, the
  // segment bytes, or the tag itself) invalidates it.
  const bool tagged = core->auth_flags == PayloadCore::kAuthTagged;
  bool tag_verified = false;
  if (tagged) {
    const auto auth_key =
        crypto::derive_segment_auth_key(core->responder_key);
    const auto expected = crypto::segment_tag(
        auth_key, core->message_id, core->segment_index, core->original_size,
        core->needed_segments, core->total_segments, core->message_digest,
        core->segment);
    tag_verified = crypto::segment_tag_equal(expected, core->auth_tag);
    (tag_verified ? auth_verified_ctr_ : auth_rejected_ctr_)->inc();
  }
  const bool trusted = !tagged || tag_verified;
  if (trusted) {
    entry.key = core->responder_key;  // R_{L+1} (idempotent per path)
  }

  auto& rmap = reassembly_[responder];
  auto [it, inserted] = rmap.try_emplace(core->message_id);
  Reassembly& reassembly = it->second;
  if (inserted) {
    // Reconstruction span: opened by the first arriving segment, closed on
    // delivery below or on TTL expiry in sweep(). Correlated by message id,
    // the same chain the initiator's send_message events ride on.
    auto& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      obs::TraceArgs args;
      args.add("responder", static_cast<std::uint64_t>(responder))
          .add("needed", static_cast<std::uint64_t>(core->needed_segments))
          .add("total", static_cast<std::uint64_t>(core->total_segments));
      tracer.span_begin("anon", "reconstruct", core->message_id, args);
    }
  }
  // Erasure metadata comes from the first *trusted* core (every legacy
  // core; tag-verified ones in tagged mode). needed == 0 marks "not yet
  // trusted" — parse_payload_core guarantees m >= 1.
  if (reassembly.needed == 0 && trusted) {
    reassembly.needed = core->needed_segments;
    reassembly.total = core->total_segments;
    reassembly.original_size = core->original_size;
  }
  if (tagged) reassembly.tagged = true;
  if (tag_verified && !reassembly.digest_known) {
    reassembly.digest_known = true;
    reassembly.digest = core->message_digest;
  }
  reassembly.expires = now + kReassemblyTtl;

  if (tagged && !tag_verified) {
    // Quarantine: never admitted to direct reconstruction, but kept for
    // the digest-validated subset search — the flip may have landed in the
    // trailer while the segment bytes are intact. The arrival path is not
    // recorded for responses, and the initiator gets a corruption verdict
    // instead of an ack.
    bool known = false;
    for (const auto& seg : reassembly.quarantined) {
      if (seg.index == core->segment_index && seg.data == core->segment) {
        known = true;
        break;
      }
    }
    if (!known) {
      erasure::Segment seg;
      seg.index = core->segment_index;
      seg.data = core->segment;
      reassembly.quarantined.push_back(std::move(seg));
      reassembly.quarantined_sids.push_back(entry.upstream_sid);
    }
    responder_nack(responder, entry, core->message_id, core->segment_index);
    if (!reassembly.delivered && reassembly.needed > 0) {
      try_authenticated_decode(responder, core->message_id, reassembly);
    }
    return;
  }

  // Track the arrival path for acks and responses (dedupe by sid).
  bool known_path = false;
  for (StreamId s : reassembly.arrival_sids) {
    if (s == entry.upstream_sid) {
      known_path = true;
      break;
    }
  }
  if (!known_path) reassembly.arrival_sids.push_back(entry.upstream_sid);

  // Store the segment unless it's a duplicate index. A tag-verified copy
  // supersedes an unverified one (a clean retransmit must not be shadowed
  // by an earlier copy the tag check never vouched for).
  bool duplicate = false;
  for (std::size_t i = 0; i < reassembly.segments.size(); ++i) {
    erasure::Segment& seg = reassembly.segments[i];
    if (seg.index != core->segment_index) continue;
    duplicate = true;
    if (tag_verified && !reassembly.segment_verified[i]) {
      seg.data = core->segment;
      reassembly.segment_verified[i] = true;
      reassembly.segment_sids[i] = entry.upstream_sid;
    }
    break;
  }
  if (!duplicate) {
    erasure::Segment seg;
    seg.index = core->segment_index;
    seg.data = core->segment;
    reassembly.segments.push_back(std::move(seg));
    reassembly.segment_sids.push_back(entry.upstream_sid);
    reassembly.segment_verified.push_back(tag_verified);
  }

  responder_ack(responder, entry, core->message_id, core->segment_index);

  if (reassembly.delivered || reassembly.needed == 0) return;
  if (reassembly.tagged) {
    try_authenticated_decode(responder, core->message_id, reassembly);
    return;
  }
  if (reassembly.segments.size() >= reassembly.needed) {
    const auto& codec = codec_for(reassembly.needed, reassembly.total);
    auto decoded =
        codec.decode(reassembly.segments, reassembly.original_size);
    if (decoded.has_value()) {
      deliver_reconstructed(responder, core->message_id, reassembly,
                            std::move(*decoded));
    }
  }
}

void AnonRouter::try_authenticated_decode(NodeId responder,
                                          MessageId message_id,
                                          Reassembly& reassembly) {
  // No tag-verified core yet: no trusted digest to validate against.
  if (!reassembly.digest_known) return;
  const auto& codec = codec_for(reassembly.needed, reassembly.total);

  // Enough tag-verified segments: decode them directly. Every input is
  // authenticated, so this cannot yield wrong bytes.
  std::vector<erasure::Segment> verified;
  for (std::size_t i = 0; i < reassembly.segments.size(); ++i) {
    if (reassembly.segment_verified[i]) {
      verified.push_back(reassembly.segments[i]);
    }
  }
  if (verified.size() >= reassembly.needed) {
    auto decoded = codec.decode(verified, reassembly.original_size);
    if (decoded.has_value() &&
        crypto::message_digest(*decoded) == reassembly.digest) {
      deliver_reconstructed(responder, message_id, reassembly,
                            std::move(*decoded));
      return;
    }
    // Unreachable short of a tag forgery; fall through to the search.
  }

  // Digest-validated subset search over everything received, quarantined
  // segments included (their tags failed, but the damage may have been
  // confined to the trailer). The decoder never returns unvalidated
  // plaintext: a candidate decode is delivered only when its digest
  // matches the trusted digest.
  std::vector<erasure::Segment> pool;
  std::vector<StreamId> pool_sids;
  std::size_t admitted = reassembly.segments.size();
  pool.reserve(admitted + reassembly.quarantined.size());
  pool_sids.reserve(admitted + reassembly.quarantined.size());
  for (std::size_t i = 0; i < admitted; ++i) {
    pool.push_back(reassembly.segments[i]);
    pool_sids.push_back(reassembly.segment_sids[i]);
  }
  for (std::size_t i = 0; i < reassembly.quarantined.size(); ++i) {
    pool.push_back(reassembly.quarantined[i]);
    pool_sids.push_back(reassembly.quarantined_sids[i]);
  }
  if (pool.size() < reassembly.needed) return;

  const erasure::DecodeValidator validate = [&](ByteView message) {
    return crypto::message_digest(message) == reassembly.digest;
  };
  auto result = erasure::verified_decode(codec, pool, reassembly.original_size,
                                         validate, kMaxDecodeSubsets);
  if (!result.has_value()) {
    auth_fallback_failed_ctr_->inc();
    return;
  }
  auth_fallback_ok_ctr_->inc();

  // Error location: every admitted segment proven corrupted earns its
  // arrival path a corruption verdict. Quarantined segments were already
  // nacked on arrival — no double jeopardy.
  std::vector<std::uint32_t> to_nack;
  for (std::uint32_t index : result->corrupted_indices) {
    for (std::size_t i = 0; i < admitted; ++i) {
      if (pool[i].index == index) {
        to_nack.push_back(index);
        break;
      }
    }
  }
  nack_segments(responder, message_id, to_nack, pool, pool_sids);
  deliver_reconstructed(responder, message_id, reassembly,
                        std::move(result->message));
}

void AnonRouter::deliver_reconstructed(NodeId responder, MessageId message_id,
                                       Reassembly& reassembly,
                                       Bytes message) {
  reassembly.delivered = true;
  reconstructions_ctr_->inc();
  reconstruct_segments_->record(reassembly.segments.size());
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::TraceArgs args;
    args.add("status", "delivered")
        .add("segments_used",
             static_cast<std::uint64_t>(reassembly.segments.size()));
    tracer.span_end("anon", "reconstruct", message_id, args);
  }
  if (message_handler_) {
    ReceivedMessage received;
    received.responder = responder;
    received.message_id = message_id;
    received.data = std::move(message);
    received.segments_received = reassembly.segments.size();
    received.reconstructed_at = simulator_.now();
    message_handler_(received);
  }
}

void AnonRouter::nack_segments(NodeId responder, MessageId message_id,
                               const std::vector<std::uint32_t>& indices,
                               const std::vector<erasure::Segment>& pool,
                               const std::vector<StreamId>& pool_sids) {
  for (std::uint32_t index : indices) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool[i].index != index) continue;
      RelayEntry* entry = tables_[responder].find_by_upstream(pool_sids[i]);
      if (entry != nullptr) {
        responder_nack(responder, *entry, message_id, index);
      }
      break;
    }
  }
}

void AnonRouter::responder_ack(NodeId responder, RelayEntry& entry,
                               MessageId message_id,
                               std::uint32_t segment_index) {
  ReverseCore ack;
  ack.type = ReverseCore::Type::kAck;
  ack.message_id = message_id;
  ack.segment_index = segment_index;
  send_reverse_core(responder, entry, ack);
}

void AnonRouter::responder_nack(NodeId responder, RelayEntry& entry,
                                MessageId message_id,
                                std::uint32_t segment_index) {
  // Framed and sealed exactly like responder_ack. Note the key caveat: on
  // a first-contact arrival whose flip landed in R_{L+1} itself, entry.key
  // holds the corrupted key and the nack is garbage to the initiator — it
  // drops on parse and the segment timeout covers the evidence instead.
  ReverseCore nack;
  nack.type = ReverseCore::Type::kCorruptNack;
  nack.message_id = message_id;
  nack.segment_index = segment_index;
  send_reverse_core(responder, entry, nack);
  auth_nacks_ctr_->inc();
}

void AnonRouter::send_reverse_core(NodeId responder, RelayEntry& entry,
                                   const ReverseCore& core) {
  const std::uint64_t seq = entry.reverse_seq++;
  Bytes blob = serialize_reverse_core(core);
  onion_.wrap_layer_in_place(entry.key, seq | kReverseBit, blob);
  send_frame(responder, entry.upstream, FrameType::kPayloadRev,
             entry.upstream_sid, seq, blob);
}

void AnonRouter::on_payload_rev(NodeId to, StreamId sid, std::uint64_t seq,
                                ByteView blob) {
  // Relay case: message came addressed with my downstream sid; add my
  // layer and pass it upstream.
  RelayEntry* entry = tables_[to].find_by_downstream(sid);
  if (entry != nullptr) {
    tables_[to].refresh(*entry, simulator_.now(), config_.state_ttl);
    const bool traced = obs::Tracer::instance().enabled();
    std::optional<HopRelaySpan> hop_span;
    if (traced) hop_span.emplace(to, "reverse");
    // Reverse relay fast path: add this hop's layer in place.
    PooledBytes buf(pool_, blob.size() + onion_.layer_overhead());
    buf->assign(blob.begin(), blob.end());
    onion_.wrap_layer_in_place(entry->key, seq | kReverseBit, *buf);
    ++messages_forwarded_;
    forwarded_ctr_->inc();
    send_frame(to, entry->upstream, FrameType::kPayloadRev,
               entry->upstream_sid, seq, *buf);
    return;
  }
  // Initiator case: hand the blob to the session owning this path.
  const auto it = reverse_handlers_[to].find(sid);
  if (it == reverse_handlers_[to].end()) return;
  ReverseDelivery delivery;
  delivery.sid = sid;
  delivery.seq = seq;
  delivery.blob = blob;
  it->second(delivery);
}

bool AnonRouter::send_response(NodeId responder, MessageId message_id,
                               ByteView data) {
  auto& rmap = reassembly_[responder];
  const auto it = rmap.find(message_id);
  if (it == rmap.end() || !it->second.delivered) return false;
  Reassembly& reassembly = it->second;

  const auto& codec = codec_for(reassembly.needed, reassembly.total);
  const auto segments = codec.encode(data);

  // Round-robin the coded response segments over the arrival paths, as the
  // paper's responder sends them "back over the k paths".
  std::vector<RelayEntry*> paths;
  for (StreamId sid : reassembly.arrival_sids) {
    RelayEntry* entry = tables_[responder].find_by_upstream(sid);
    if (entry != nullptr) paths.push_back(entry);
  }
  if (paths.empty()) return false;

  const std::uint32_t response_id = reassembly.next_response_id++;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    RelayEntry* entry = paths[i % paths.size()];
    ReverseCore core;
    core.type = ReverseCore::Type::kResponseSegment;
    core.message_id = message_id;
    core.response_id = response_id;
    core.segment_index = segments[i].index;
    core.original_size = static_cast<std::uint32_t>(data.size());
    core.needed_segments = static_cast<std::uint16_t>(reassembly.needed);
    core.total_segments = static_cast<std::uint16_t>(reassembly.total);
    core.segment = segments[i].data;
    send_reverse_core(responder, *entry, core);
  }
  return true;
}

void AnonRouter::sweep() {
  const SimTime now = simulator_.now();
  for (auto& table : tables_) table.expire(now);
  for (NodeId node = 0; node < reassembly_.size(); ++node) {
    auto& rmap = reassembly_[node];
    for (auto it = rmap.begin(); it != rmap.end();) {
      if (it->second.expires <= now) {
        if (!it->second.delivered) {
          ++reassemblies_expired_;
          reassembly_expired_ctr_->inc();
          auto& tracer = obs::Tracer::instance();
          if (tracer.enabled()) {
            obs::TraceArgs args;
            args.add("status", "expired")
                .add("segments_received",
                     static_cast<std::uint64_t>(it->second.segments.size()));
            tracer.span_end("anon", "reconstruct", it->first, args);
          }
          if (reassembly_expiry_handler_) {
            reassembly_expiry_handler_(node, it->first);
          }
        }
        it = rmap.erase(it);
      } else {
        ++it;
      }
    }
  }
}

const erasure::Codec& AnonRouter::codec_for(std::size_t m, std::size_t n) {
  const auto key = std::make_pair(m, n);
  auto it = codecs_.find(key);
  if (it == codecs_.end()) {
    it = codecs_.emplace(key, erasure::make_codec(m, n)).first;
  }
  return *it->second;
}

std::size_t AnonRouter::path_state_count(NodeId node) const {
  return tables_[node].size();
}

std::size_t AnonRouter::pending_construction_count(NodeId node) const {
  return pending_[node].size();
}

std::size_t AnonRouter::reverse_handler_count(NodeId node) const {
  return reverse_handlers_[node].size();
}

std::size_t AnonRouter::reassembly_count(NodeId node) const {
  return reassembly_[node].size();
}

void AnonRouter::byte_census(obs::capacity::ByteCensus& census) const {
  std::uint64_t table_bytes = obs::capacity::vector_bytes(tables_);
  for (const PathStateTable& table : tables_) {
    table_bytes += table.memory_bytes();
  }
  census.add("router", "path_state_tables", table_bytes);

  std::uint64_t pending_bytes = obs::capacity::vector_bytes(pending_);
  for (const auto& map : pending_) {
    pending_bytes += obs::capacity::hash_map_bytes(map);
  }
  pending_bytes += obs::capacity::vector_bytes(reverse_handlers_);
  for (const auto& map : reverse_handlers_) {
    pending_bytes += obs::capacity::hash_map_bytes(map);
  }
  census.add("router", "pending_and_handlers", pending_bytes);

  std::uint64_t reassembly_bytes = obs::capacity::vector_bytes(reassembly_);
  for (const auto& map : reassembly_) {
    reassembly_bytes += obs::capacity::hash_map_bytes(map);
    for (const auto& [id, r] : map) {
      std::uint64_t held = 0;
      for (const auto& seg : r.segments) held += seg.data.capacity();
      for (const auto& seg : r.quarantined) held += seg.data.capacity();
      held += obs::capacity::vector_bytes(r.arrival_sids) +
              obs::capacity::vector_bytes(r.segment_sids) +
              obs::capacity::vector_bytes(r.quarantined_sids);
      reassembly_bytes += held;
    }
  }
  census.add("router", "reassembly", reassembly_bytes);

  census.add("router", "node_keys",
             obs::capacity::vector_bytes(node_keys_));
  census.add("router", "buffer_pool", pool_.memory_bytes());
  // Largest single buffer the pool ever produced — burst regrowth past
  // the 16 KiB default used to be invisible here.
  census.add("router", "buffer_pool_high_water", pool_.high_water());
}

}  // namespace p2panon::anon
