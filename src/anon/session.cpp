#include "anon/session.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace p2panon::anon {

namespace {

// Adaptive mode (adaptive_timeouts): RTO clamp and the retry backoff
// schedule, sized for fault windows of minutes.
constexpr SimDuration kRtoMin = 500 * kMillisecond;
constexpr SimDuration kRtoMax = 30 * kSecond;
constexpr SimDuration kBackoffBase = 250 * kMillisecond;
constexpr SimDuration kBackoffMax = 10 * kSecond;

// Suspicion evidence per relay on the offending path (relay_suspicion): a
// corrupt-nack is proof of tampering, an ack timeout only a hint (dead
// relays stall too).
constexpr double kCorruptSuspicion = 1.0;
constexpr double kStallSuspicion = 0.25;

// Consecutive corrupt-nacks that fail a path (segment_auth).
constexpr std::size_t kNackFailThreshold = 3;

// How long a backpressure frame keeps its path congested.
constexpr SimDuration kBackpressureHold = 2 * kSecond;

// In-flight segment bound under OverloadPolicy::kShed; bulk is refused
// already at 3/4 of it. Retransmissions bypass it: they replace ledger
// entries rather than adding new ones.
constexpr std::size_t kMaxInflightSegments = 256;

std::uint64_t pending_key(MessageId id, std::uint32_t segment) {
  return id ^ (static_cast<std::uint64_t>(segment) * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

Session::Session(AnonRouter& router, const membership::NodeCache& cache,
                 NodeId initiator, NodeId responder, SessionConfig config,
                 Rng rng)
    : router_(router),
      cache_(cache),
      initiator_(initiator),
      responder_(responder),
      config_(config),
      rng_(rng),
      selector_(config.mix_choice, rng_.fork(), config.staleness_aware),
      alive_(std::make_shared<bool>(true)) {
  config_.erasure.validate();
  obs::Registry& reg = router_.metrics();
  msgs_ctr_ = reg.counter("session_messages_total");
  construct_attempts_ctr_ = reg.counter("session_construct_attempts_total");
  seg_sent_ctr_ = reg.counter("session_segments_total", {{"event", "sent"}});
  seg_retx_ctr_ =
      reg.counter("session_segments_total", {{"event", "retransmit"}});
  seg_acked_ctr_ = reg.counter("session_segments_total", {{"event", "acked"}});
  seg_expired_ctr_ =
      reg.counter("session_segments_total", {{"event", "expired"}});
  path_failures_ctr_ = reg.counter("session_path_failures_total");
  nacks_rx_ctr_ = reg.counter("session_corrupt_nacks_total");
  susp_corrupt_ctr_ = reg.counter("membership_suspicion_reports_total",
                                  {{"evidence", "corrupt"}});
  susp_stall_ctr_ = reg.counter("membership_suspicion_reports_total",
                                {{"evidence", "stall"}});
  quarantined_gauge_ = reg.gauge("membership_suspicion_quarantined");
  rtt_us_ = reg.histogram("session_rtt_us");
  rto_us_ = reg.histogram("session_rto_us");
  shed_queue_ctr_ =
      reg.counter("session_sheds_total", {{"cause", "queue_full"}});
  shed_headroom_ctr_ =
      reg.counter("session_sheds_total", {{"cause", "bulk_headroom"}});
  shed_congested_ctr_ =
      reg.counter("session_sheds_total", {{"cause", "congested_path"}});
  bp_rx_ctr_ =
      reg.counter("session_backpressure_total", {{"event", "received"}});
  stall_suppressed_ctr_ = reg.counter("session_backpressure_total",
                                      {{"event", "stall_suppressed"}});
  if (config_.staleness_aware) {
    // Registered only when the mode is on, so a run without it exports
    // neither series.
    stale_fallbacks_ctr_ = reg.counter("anon_mix_stale_fallbacks_total");
    biased_selects_ctr_ = reg.counter("anon_mix_biased_selects_total");
  }
  paths_.resize(config_.erasure.k);
  keys_.resize(config_.erasure.k);
  path_health_.resize(config_.erasure.k);
  congested_until_.resize(config_.erasure.k, 0);
  last_backpressure_.resize(config_.erasure.k, 0);
  if (config_.adaptive_timeouts) {
    // Forked only in adaptive mode: fork() advances rng_, and the default
    // configuration must keep every existing draw in place.
    backoff_rng_ = rng_.fork();
  }
  if (config_.replace_threshold > 0.0) {
    predictor_task_ = std::make_unique<sim::PeriodicTask>(
        router_.simulator(), config_.replace_check_interval,
        [this] { check_predictors(); });
    predictor_task_->start();
  }
}

Session::~Session() {
  *alive_ = false;
  for (auto& pending : pending_segments_) {
    router_.simulator().cancel(pending.second.timeout_event);
  }
  for (const PathInfo& path : paths_) {
    if (path.sid != 0) {
      router_.unregister_reverse_handler(initiator_, path.sid);
    }
  }
}

std::optional<std::vector<std::vector<NodeId>>> Session::select_relays(
    std::size_t paths, SimTime now, const std::vector<NodeId>& extra_exclude) {
  auto out = selector_.select_paths(cache_, paths, config_.path_length, now,
                                    initiator_, responder_, extra_exclude);
  // Mirror the selector's staleness tallies into the registry by delta, so
  // the counters track decisions (not calls) without the selector needing
  // a registry handle. Both pointers are null unless staleness_aware.
  if (stale_fallbacks_ctr_ != nullptr) {
    const std::uint64_t fallbacks = selector_.stale_fallbacks();
    if (fallbacks > mirrored_fallbacks_) {
      stale_fallbacks_ctr_->inc(fallbacks - mirrored_fallbacks_);
      mirrored_fallbacks_ = fallbacks;
    }
    const std::uint64_t biased = selector_.biased_selects();
    if (biased > mirrored_biased_) {
      biased_selects_ctr_->inc(biased - mirrored_biased_);
      mirrored_biased_ = biased;
    }
  }
  return out;
}

void Session::construct(ConstructHandler handler) {
  if (constructing_) {
    throw std::logic_error("Session::construct: already constructing");
  }
  construct_handler_ = std::move(handler);
  constructing_ = true;
  torn_down_ = false;
  construct_attempts_ = 0;
  attempt_construction();
}

void Session::attempt_construction() {
  ++construct_attempts_;
  construct_attempts_ctr_->inc();

  const SimTime now = router_.simulator().now();
  auto selected = select_relays(config_.erasure.k, now);
  if (!selected.has_value()) {
    // Cache too small right now; count the attempt and retry or give up.
    if (construct_attempts_ < config_.max_construct_attempts) {
      retry_construction();
      return;
    }
    constructing_ = false;
    construct_handler_(false, construct_attempts_);
    return;
  }

  attempt_outstanding_ = config_.erasure.k;
  for (std::size_t index = 0; index < config_.erasure.k; ++index) {
    provision_path(index, std::move((*selected)[index]));
    build_path(index, [this](bool) {
      if (--attempt_outstanding_ == 0) finish_attempt();
    });
  }
}

void Session::provision_path(std::size_t index, std::vector<NodeId> relays) {
  PathInfo& path = paths_[index];
  if (path.sid != 0) {
    router_.unregister_reverse_handler(initiator_, path.sid);
    path.sid = 0;
  }
  path.relays = std::move(relays);
  PathKeys& keys = keys_[index];
  keys = PathKeys{};
  keys.relay_keys.reserve(path.relays.size());
  for (std::size_t i = 0; i < path.relays.size(); ++i) {
    keys.relay_keys.push_back(crypto::random_symmetric_key(rng_));
  }
  keys.responder_key = crypto::random_symmetric_key(rng_);
  path.state = PathState::kPending;
}

void Session::build_path(std::size_t index, std::function<void(bool)> done) {
  PathInfo& path = paths_[index];
  const SimTime started = router_.simulator().now();
  path.sid = router_.initiate_path(
      initiator_, path.relays, keys_[index].relay_keys, responder_,
      config_.construct_timeout,
      [this, index, started, alive = alive_, done = std::move(done)](bool ok) {
        if (!*alive) return;
        if (ok && config_.adaptive_timeouts) {
          // Fresh relay set: restart the estimator, seeded by the
          // construction round trip over the very same relays.
          path_health_[index].rtt_valid = false;
          observe_rtt(index, router_.simulator().now() - started);
        }
        paths_[index].state = ok ? PathState::kEstablished : PathState::kFailed;
        done(ok);
      });
  register_reverse(index);
}

void Session::register_reverse(std::size_t index) {
  router_.register_reverse_handler(
      initiator_, paths_[index].sid,
      [this, index, alive = alive_](const ReverseDelivery& delivery) {
        if (!*alive) return;
        on_reverse(index, delivery);
      });
}

void Session::release_path(std::size_t index) {
  PathInfo& path = paths_[index];
  if (path.state == PathState::kEstablished && path.sid != 0 &&
      !path.relays.empty()) {
    router_.send_teardown(initiator_, path.sid, path.relays.front());
  }
  if (path.sid != 0) {
    router_.unregister_reverse_handler(initiator_, path.sid);
    path.sid = 0;
  }
  path.state = PathState::kUnbuilt;
}

std::vector<NodeId> Session::other_relays(std::size_t index,
                                          bool live_only) const {
  std::vector<NodeId> out;
  for (std::size_t j = 0; j < paths_.size(); ++j) {
    if (j == index) continue;
    const PathInfo& other = paths_[j];
    if (live_only && other.state != PathState::kEstablished &&
        other.state != PathState::kPending) {
      continue;
    }
    out.insert(out.end(), other.relays.begin(), other.relays.end());
  }
  return out;
}

std::optional<std::size_t> Session::next_established_path(
    std::size_t from, bool may_reuse) const {
  for (std::size_t step = 1; step <= paths_.size(); ++step) {
    const std::size_t candidate = (from + step) % paths_.size();
    if (paths_[candidate].state != PathState::kEstablished) continue;
    if (candidate == from && !may_reuse) continue;
    return candidate;
  }
  return std::nullopt;
}

void Session::finish_attempt() {
  const std::size_t established = established_paths();
  const std::size_t target = config_.require_full_construction
                                 ? config_.erasure.k
                                 : config_.erasure.min_paths();
  if (established >= target) {
    constructing_ = false;
    construct_handler_(true, construct_attempts_);
    return;
  }
  if (config_.require_full_construction && established > 0) {
    if (construct_attempts_ >= config_.max_construct_attempts) {
      // Out of attempts: report whether the partial set is at least
      // viable by the paper's min_paths() criterion.
      constructing_ = false;
      construct_handler_(established >= config_.erasure.min_paths(),
                         construct_attempts_);
      return;
    }
    ++construct_attempts_;
    top_up_missing_paths();
    return;
  }
  // Whole-set retry with a fresh relay set (the paper's "another set of
  // relay nodes for another attempt").
  for (std::size_t index = 0; index < paths_.size(); ++index) {
    release_path(index);
  }
  if (construct_attempts_ < config_.max_construct_attempts) {
    retry_construction();
  } else {
    constructing_ = false;
    construct_handler_(false, construct_attempts_);
  }
}

void Session::top_up_missing_paths() {
  std::vector<std::size_t> missing;
  for (std::size_t index = 0; index < paths_.size(); ++index) {
    if (paths_[index].state != PathState::kEstablished) missing.push_back(index);
  }
  attempt_outstanding_ = missing.size();
  std::size_t started = 0;
  const SimTime now = router_.simulator().now();
  for (std::size_t index : missing) {
    // Exclude relays of every kept path (and of top-ups already started
    // this round, whose relays are in place by now) for disjointness.
    auto selected =
        select_relays(1, now, other_relays(index, /*live_only=*/true));
    if (!selected.has_value()) {
      // No disjoint relays for this slot right now; leave it for the
      // next round.
      --attempt_outstanding_;
      continue;
    }
    provision_path(index, std::move((*selected)[0]));
    ++started;
    build_path(index, [this](bool) {
      if (--attempt_outstanding_ == 0) finish_attempt();
    });
  }
  if (started == 0) {
    // The cache could not provide a single disjoint path: fall back to
    // the whole-set retry loop (which burns attempts until the cache
    // recovers, exactly like the initial-construction select failure).
    retry_construction();
  }
}

void Session::retry_construction() {
  if (!config_.adaptive_timeouts) {
    attempt_construction();  // immediate retry: the paper's behavior
    return;
  }
  static const auto kBackoffEvent =
      obs::capacity::event_type("session.timer");
  construct_backoff_event_ = router_.simulator().schedule_after(
      backoff_delay(construct_attempts_ - 1),
      [this, alive = alive_] {
        if (!*alive || torn_down_) return;
        construct_backoff_event_ = sim::kInvalidEventId;
        attempt_construction();
      },
      kBackoffEvent);
}

SimDuration Session::backoff_delay(std::size_t failures) {
  const std::size_t shift = std::min<std::size_t>(failures, 20);
  SimDuration delay = std::min(kBackoffBase << shift, kBackoffMax);
  if (delay < 2) return delay;
  // Deterministic jitter in [delay/2, delay], from the session's own
  // forked stream so it perturbs no other component.
  const SimDuration half = delay / 2;
  return half + static_cast<SimDuration>(
                    backoff_rng_.next_below(static_cast<std::uint64_t>(
                        delay - half + 1)));
}

bool Session::ready() const {
  return !constructing_ && established_paths() >= config_.erasure.min_paths();
}

std::size_t Session::established_paths() const {
  std::size_t count = 0;
  for (const PathInfo& path : paths_) {
    if (path.state == PathState::kEstablished) ++count;
  }
  return count;
}

MessageId Session::send_message(ByteView data) {
  return send_message(data, SegmentPriority::kInteractive);
}

MessageId Session::send_message(ByteView data, SegmentPriority priority) {
  if (established_paths() == 0) return 0;

  // Bounded send queue: refuse the whole message up front when the pending
  // ledger has no room for its segments. Bulk is refused earlier (at 3/4 of
  // the bound), keeping headroom for interactive traffic. The check
  // precedes the id draw so a shed message costs zero RNG draws — runs
  // under other policies never reach it.
  if (router_.config().overload == OverloadPolicy::kShed) {
    std::size_t limit = kMaxInflightSegments;
    if (priority == SegmentPriority::kBulk) limit = limit * 3 / 4;
    if (pending_segments_.size() + config_.erasure.n > limit) {
      const bool hard_full = pending_segments_.size() + config_.erasure.n >
                             kMaxInflightSegments;
      (hard_full ? shed_queue_ctr_ : shed_headroom_ctr_)->inc();
      return 0;
    }
  }

  const auto [id, digest] = start_message(data, /*on_demand=*/false);
  const Allocation alloc = allocate_even(config_.erasure);
  // Segment sends, their delay timers, and every retransmit they spawn all
  // inherit the message id as correlation: the trace groups the message's
  // whole causal tree under one id.
  obs::CorrelationScope corr_scope(id);
  const SimTime now = router_.simulator().now();
  for (std::size_t s = 0; s < encode_scratch_.size(); ++s) {
    const std::size_t path_index = alloc[s];
    if (paths_[path_index].state != PathState::kEstablished) continue;
    if (priority == SegmentPriority::kBulk &&
        congested_until_[path_index] > now) {
      // A relay on this path recently shed under load: hold bulk segments
      // back (the erasure code absorbs the loss if enough paths are clear)
      // rather than feeding the hotspot.
      shed_congested_ctr_->inc();
      continue;
    }
    const erasure::Segment& segment = encode_scratch_[s];
    send_segment_on_path(path_index, {.message_id = id,
                                      .segment_index = segment.index,
                                      .segment = segment,
                                      .original_size = data.size(),
                                      .digest = digest,
                                      .priority = priority});
  }
  return id;
}

Session::MessageStart Session::start_message(ByteView data, bool on_demand) {
  MessageStart start;
  do {
    start.id = rng_.next_u64();
  } while (start.id == 0);

  // Encode with the session codec (cached in the router's codec table so
  // RS matrices are not rebuilt per message) into the session's scratch
  // vector, reusing the segment buffers across messages.
  router_.codec_for(config_.erasure.m, config_.erasure.n)
      .encode_into(data, encode_scratch_);

  // One digest per message, reused by every segment's trailer (and kept in
  // the pending ledger so retransmits carry it too). Zero bytes of work
  // with segment_auth off.
  if (config_.segment_auth) start.digest = crypto::message_digest(data);

  ++messages_sent_;
  msgs_ctr_->inc();
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::TraceArgs args;
    args.add("bytes", static_cast<std::uint64_t>(data.size()))
        .add("segments", static_cast<std::uint64_t>(encode_scratch_.size()));
    if (on_demand) args.add("on_demand", static_cast<std::uint64_t>(1));
    tracer.instant("anon", "message_send", start.id, args);
  }
  return start;
}


void Session::report_path_suspicion(std::size_t path_index, double weight,
                                    obs::Counter* evidence_ctr) {
  if (!config_.relay_suspicion || !cache_.suspicion_enabled()) return;
  const SimTime now = router_.simulator().now();
  // The responder cannot name the guilty relay, only the guilty path:
  // every relay on it shares the evidence and decays clean if innocent
  // (paper-style accountability at path granularity).
  for (NodeId relay : paths_[path_index].relays) {
    cache_.report_suspicion(relay, weight, now);
    evidence_ctr->inc();
  }
  quarantined_gauge_->set(
      static_cast<std::int64_t>(cache_.quarantined_count(now)));
}

void Session::send_segment_on_path(std::size_t path_index,
                                   PendingSegment seg) {
  // Rebuild-driven resends arrive here from a construct-ack chain; pin the
  // correlation back to the message so the timeout event and the relay
  // hops below stay on the message's causal tree.
  obs::CorrelationScope corr_scope(seg.message_id);
  begin_segment_span(path_index, seg, /*combined_construct=*/false);
  const std::uint64_t seq = keys_[path_index].next_seq++;
  Bytes blob = seal_segment(path_index, seq, seg);
  const PathInfo& path = paths_[path_index];
  router_.send_payload(initiator_, path.sid, path.relays.front(), seq,
                       std::move(blob), keys_[path_index].responder_replied,
                       seg.priority);
  track_segment(path_index, std::move(seg), /*fail_pending_path=*/false);
}

void Session::begin_segment_span(std::size_t path_index,
                                 const PendingSegment& seg,
                                 bool combined_construct) const {
  auto& tracer = obs::Tracer::instance();
  if (!tracer.enabled()) return;
  obs::TraceArgs args;
  args.add("segment", static_cast<std::uint64_t>(seg.segment_index))
      .add("path", static_cast<std::uint64_t>(path_index))
      .add("retries", static_cast<std::uint64_t>(seg.retries));
  if (combined_construct) {
    args.add("combined_construct", static_cast<std::uint64_t>(1));
  }
  tracer.span_begin("anon",
                    seg.retries == 0 ? "segment" : "segment_retransmit",
                    seg.message_id, args);
}

Bytes Session::seal_segment(std::size_t path_index, std::uint64_t seq,
                            const PendingSegment& seg) {
  const PathKeys& keys = keys_[path_index];
  PayloadCore core;
  core.message_id = seg.message_id;
  core.segment_index = seg.segment_index;
  core.original_size = static_cast<std::uint32_t>(seg.original_size);
  core.needed_segments = static_cast<std::uint16_t>(config_.erasure.m);
  core.total_segments = static_cast<std::uint16_t>(config_.erasure.n);
  core.segment = seg.segment.data;
  core.responder_key = keys.responder_key;
  if (config_.segment_auth) {
    core.auth_flags = PayloadCore::kAuthTagged;
    core.message_digest = seg.digest;
    core.auth_tag = crypto::segment_tag(
        crypto::derive_segment_auth_key(keys.responder_key), core.message_id,
        core.segment_index, core.original_size, core.needed_segments,
        core.total_segments, seg.digest, core.segment);
  }
  const OnionCodec& onion = router_.onion();
  const std::size_t layers = keys.relay_keys.size();
  Bytes blob;
  if (keys.responder_replied) {
    // Keyed core: the responder's terminal entry already holds R_{L+1}.
    // Its nonce is the forward seq, whose bit 63 is clear, while reverse
    // cores under the same key use seq | kReverseBit; next_seq never
    // repeats on a slot and R_{L+1} is redrawn on provision.
    // Sealed boxes and auth tags use keys derived from other inputs.
    blob = serialize_payload_core(core);
    blob.reserve(blob.size() + (layers + 1) * onion.layer_overhead());
    onion.wrap_layer_in_place(keys.responder_key, seq, blob);
  } else {
    blob = onion.seal_payload_core(
        core, router_.directory().public_key(responder_), rng_);
    blob.reserve(blob.size() + layers * onion.layer_overhead());
  }
  for (std::size_t i = layers; i-- > 0;) {
    onion.wrap_layer_in_place(keys.relay_keys[i], seq, blob);
  }
  return blob;
}

void Session::track_segment(std::size_t path_index, PendingSegment seg,
                            bool fail_pending_path) {
  ++segments_sent_;
  ++paths_[path_index].sends;
  seg_sent_ctr_->inc();

  // Register the pending ack with its timeout. With adaptive timeouts the
  // wait is the path's current RTO, doubled for every retry already spent
  // on this segment; otherwise the fixed ack_timeout.
  SimDuration timeout = config_.ack_timeout;
  if (config_.adaptive_timeouts) {
    timeout = current_rto(path_index);
    const std::size_t shift = std::min<std::size_t>(seg.retries, 6);
    timeout = std::min(timeout << shift, kRtoMax);
  }
  const std::uint64_t key = pending_key(seg.message_id, seg.segment_index);
  seg.path_index = path_index;
  seg.sent_at = router_.simulator().now();
  static const auto kSegmentTimerEvent =
      obs::capacity::event_type("session.timer");
  seg.timeout_event = router_.simulator().schedule_after(
      timeout,
      [this, key, fail_pending_path, alive = alive_] {
        if (!*alive) return;
        on_segment_timeout(key, fail_pending_path);
      },
      kSegmentTimerEvent);
  pending_segments_[key] = std::move(seg);
}

Session::PendingSegment Session::take_for_resend(PendingLedger::iterator it,
                                                 const char* outcome) {
  PendingSegment seg = std::move(it->second);
  pending_segments_.erase(it);
  ++segments_retransmitted_;
  seg_retx_ctr_->inc();
  end_segment_span(seg, outcome);
  return seg;
}

void Session::on_segment_timeout(std::uint64_t key, bool fail_pending_path) {
  const auto it = pending_segments_.find(key);
  if (it == pending_segments_.end()) return;
  const std::size_t failed_path = it->second.path_index;
  ++failures_detected_;
  // The responder may have lost its terminal entry: seal again until it
  // replies.
  keys_[failed_path].responder_replied = false;
  // Stall evidence: the path swallowed a segment without an ack or a
  // corruption verdict. Weaker than a corrupt-nack — dead relays produce
  // it too, and the liveness predictor already covers those.
  //
  // Suspicion-neutral overload accounting: if a relay on this path has
  // signalled backpressure since the segment went out, the loss is
  // explained by honest overload, not malice — suppress the evidence so
  // saturated-but-honest relays are not quarantined as byzantine.
  const bool overload_explained =
      last_backpressure_[failed_path] != 0 &&
      last_backpressure_[failed_path] >= it->second.sent_at;
  if (overload_explained) {
    stall_suppressed_ctr_->inc();
  } else {
    report_path_suspicion(failed_path, kStallSuspicion, susp_stall_ctr_);
  }

  if (config_.adaptive_timeouts) {
    PathHealth& health = path_health_[failed_path];
    ++health.consecutive_timeouts;
    const bool declare_failed =
        health.consecutive_timeouts >= config_.path_fail_threshold;
    // Retransmit over a surviving path: round-robin scan starting after
    // the timed-out one; the same path still qualifies while it is below
    // the failure threshold.
    if (it->second.retries < config_.max_segment_retries) {
      const auto target =
          next_established_path(failed_path, /*may_reuse=*/!declare_failed);
      if (target.has_value()) {
        PendingSegment seg = take_for_resend(it, "retransmitted");
        if (declare_failed) mark_path_failed(failed_path);
        ++seg.retries;
        send_segment_on_path(*target, std::move(seg));
        return;
      }
    }
    // Retry budget exhausted (or no surviving path): the segment is lost
    // for good and the ledger records it.
    expire_segment(key);
    if (fail_pending_path && fail_pending_combined(failed_path)) return;
    if (declare_failed) mark_path_failed(failed_path);
    return;
  }

  // Fixed-timeout behavior, identical to the paper configuration: one
  // timeout fails the path outright.
  if (config_.auto_reconstruct) {
    // Keep the entry: the rebuild's resend_pending() picks it up.
    it->second.timeout_event = sim::kInvalidEventId;
  } else {
    expire_segment(key);
  }
  if (fail_pending_path && fail_pending_combined(failed_path)) return;
  mark_path_failed(failed_path);
}

bool Session::fail_pending_combined(std::size_t path_index) {
  // A combined path never confirmed by an ack is simply failed: no
  // path_failed instant and no failure counter, unlike mark_path_failed.
  PathInfo& path = paths_[path_index];
  if (path.state != PathState::kPending) return false;
  path.state = PathState::kFailed;
  if (path_failure_handler_) path_failure_handler_(path_index);
  if (config_.auto_reconstruct) schedule_rebuild(path_index);
  return true;
}

void Session::end_segment_span(const PendingSegment& seg,
                               const char* outcome) {
  auto& tracer = obs::Tracer::instance();
  if (!tracer.enabled()) return;
  obs::TraceArgs args;
  args.add("outcome", outcome)
      .add("segment", static_cast<std::uint64_t>(seg.segment_index))
      .add("path", static_cast<std::uint64_t>(seg.path_index));
  tracer.span_end("anon",
                  seg.retries == 0 ? "segment" : "segment_retransmit",
                  seg.message_id, args);
}

void Session::expire_segment(std::uint64_t key) {
  const auto it = pending_segments_.find(key);
  if (it == pending_segments_.end()) return;
  const PendingSegment seg = std::move(it->second);
  pending_segments_.erase(it);
  ++segments_expired_;
  seg_expired_ctr_->inc();
  end_segment_span(seg, "expired");
  if (segment_expiry_handler_) {
    segment_expiry_handler_(seg.message_id, seg.segment_index,
                            seg.path_index);
  }
}

void Session::observe_rtt(std::size_t path_index, SimDuration sample) {
  PathHealth& health = path_health_[path_index];
  const double sample_us = static_cast<double>(sample);
  rtt_us_->record(static_cast<std::uint64_t>(sample));
  if (!health.rtt_valid) {
    health.rtt_valid = true;
    health.srtt_us = sample_us;
    health.rttvar_us = sample_us / 2.0;
  } else {
    // Jacobson/Karels: RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R'|,
    //                  SRTT   <- 7/8 SRTT + 1/8 R'.
    health.rttvar_us =
        0.75 * health.rttvar_us + 0.25 * std::abs(health.srtt_us - sample_us);
    health.srtt_us = 0.875 * health.srtt_us + 0.125 * sample_us;
  }
  const SimDuration rto = current_rto(path_index);
  rto_us_->record(static_cast<std::uint64_t>(rto));
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::TraceArgs args;
    args.add("path", static_cast<std::uint64_t>(path_index))
        .add("rtt_us", static_cast<std::uint64_t>(sample))
        .add("rto_us", static_cast<std::uint64_t>(rto));
    tracer.instant("anon", "rto_update", obs::current_correlation(), args);
  }
}

SimDuration Session::current_rto(std::size_t path_index) const {
  const PathHealth& health = path_health_[path_index];
  if (!config_.adaptive_timeouts || !health.rtt_valid) {
    return config_.ack_timeout;
  }
  const double rto = health.srtt_us + 4.0 * health.rttvar_us;
  return std::clamp(static_cast<SimDuration>(rto), kRtoMin, kRtoMax);
}

void Session::mark_path_failed(std::size_t path_index) {
  PathInfo& path = paths_[path_index];
  if (path.state != PathState::kEstablished) return;
  path.state = PathState::kFailed;
  path_failures_ctr_->inc();
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::TraceArgs args;
    args.add("path", static_cast<std::uint64_t>(path_index));
    tracer.instant("anon", "path_failed", obs::current_correlation(), args);
  }
  if (path_failure_handler_) path_failure_handler_(path_index);
  if (config_.auto_reconstruct) schedule_rebuild(path_index);
}

void Session::schedule_rebuild(std::size_t path_index) {
  // First rebuild of a streak is immediate (detection already cost a full
  // timeout); repeat failures back off exponentially in adaptive mode.
  if (!config_.adaptive_timeouts ||
      path_health_[path_index].rebuild_failures == 0) {
    rebuild_path(path_index);
    return;
  }
  static const auto kRebuildEvent =
      obs::capacity::event_type("session.timer");
  router_.simulator().schedule_after(
      backoff_delay(path_health_[path_index].rebuild_failures - 1),
      [this, path_index, alive = alive_] {
        if (!*alive || torn_down_) return;
        if (paths_[path_index].state != PathState::kFailed) return;
        rebuild_path(path_index);
      },
      kRebuildEvent);
}

void Session::rebuild_path(std::size_t path_index) {
  // A rebuild construct that times out after teardown would otherwise
  // restart the rebuild loop against a dead session forever.
  if (torn_down_) return;
  // Exclude relays used by the other live paths to keep disjointness.
  const SimTime now = router_.simulator().now();
  auto selected =
      select_relays(1, now, other_relays(path_index, /*live_only=*/true));
  if (!selected.has_value()) {
    if (config_.adaptive_timeouts) {
      // Not enough disjoint relays right now: try again later instead of
      // abandoning the path (and its kept pending segments) forever.
      ++path_health_[path_index].rebuild_failures;
      schedule_rebuild(path_index);
    } else {
      // No retry is coming: close the ledger on any segments that were
      // kept for a resend that can never happen.
      expire_kept_pending(path_index);
    }
    return;
  }

  provision_path(path_index, std::move((*selected)[0]));
  ++paths_[path_index].rebuilds;
  build_path(path_index, [this, path_index](bool ok) {
    if (ok) {
      path_health_[path_index].rebuild_failures = 0;
      path_health_[path_index].consecutive_timeouts = 0;
      resend_pending(path_index, path_index);
    } else if (config_.auto_reconstruct) {
      ++path_health_[path_index].rebuild_failures;
      schedule_rebuild(path_index);
    }
  });
}

void Session::expire_kept_pending(std::size_t path_index) {
  std::vector<std::uint64_t> keys;
  for (const auto& [key, pending] : pending_segments_) {
    if (pending.path_index == path_index &&
        pending.timeout_event == sim::kInvalidEventId) {
      keys.push_back(key);
    }
  }
  for (const std::uint64_t key : keys) expire_segment(key);
}

void Session::resend_pending(std::size_t old_path_index,
                             std::size_t new_path_index) {
  // Collect the un-acked segments that were riding the failed path and
  // resend them over the rebuilt one.
  std::vector<PendingSegment> to_resend;
  for (auto it = pending_segments_.begin(); it != pending_segments_.end();) {
    if (it->second.path_index == old_path_index) {
      router_.simulator().cancel(it->second.timeout_event);
      to_resend.push_back(std::move(it->second));
      it = pending_segments_.erase(it);
    } else {
      ++it;
    }
  }
  segments_retransmitted_ += to_resend.size();
  seg_retx_ctr_->inc(to_resend.size());
  for (PendingSegment& pending : to_resend) {
    end_segment_span(pending, "resent_on_rebuild");
    pending.retries = 0;
    send_segment_on_path(new_path_index, std::move(pending));
  }
}

void Session::check_predictors() {
  const SimTime now = router_.simulator().now();
  for (std::size_t j = 0; j < paths_.size(); ++j) {
    if (paths_[j].state != PathState::kEstablished) continue;
    double min_q = 1.0;
    for (NodeId relay : paths_[j].relays) {
      min_q = std::min(min_q, cache_.predictor(relay, now));
    }
    if (min_q < config_.replace_threshold) {
      ++proactive_replacements_;
      // Release the old path politely before rebuilding over it.
      if (paths_[j].sid != 0 && !paths_[j].relays.empty()) {
        router_.send_teardown(initiator_, paths_[j].sid,
                              paths_[j].relays.front());
      }
      rebuild_path(j);
    }
  }
}

void Session::on_reverse(std::size_t path_index,
                         const ReverseDelivery& delivery) {
  if (delivery.backpressure) {
    // Plain (un-onioned) congestion signal from a relay on this path; it
    // carries no payload to unwrap.
    on_backpressure(path_index);
    return;
  }
  PathKeys& keys = keys_[path_index];
  // Strip the relay layers (R_1 outermost) and the responder-core layer,
  // all in place in the session-owned scratch buffer.
  Bytes& blob = reverse_scratch_;
  blob.assign(delivery.blob.begin(), delivery.blob.end());
  const std::uint64_t seq = delivery.seq | AnonRouter::kReverseBit;
  for (const RelayKey& key : keys.relay_keys) {
    if (!router_.onion().unwrap_layer_in_place(key, seq, blob)) return;
  }
  if (!router_.onion().unwrap_layer_in_place(keys.responder_key, seq, blob)) {
    return;
  }
  const auto core = parse_reverse_core(blob);
  if (!core.has_value()) return;
  keys.responder_replied = true;
  handle_reverse_core(path_index, *core);
}

void Session::on_backpressure(std::size_t path_index) {
  bp_rx_ctr_->inc();
  const SimTime now = router_.simulator().now();
  last_backpressure_[path_index] = now;
  congested_until_[path_index] = now + kBackpressureHold;
}

void Session::handle_reverse_core(std::size_t path_index,
                                  const ReverseCore& core) {
  if (core.type == ReverseCore::Type::kAck) {
    const std::uint64_t key = pending_key(core.message_id, core.segment_index);
    const auto it = pending_segments_.find(key);
    if (it != pending_segments_.end()) {
      router_.simulator().cancel(it->second.timeout_event);
      if (config_.adaptive_timeouts) {
        // Karn's algorithm: never sample a retransmitted segment — the ack
        // could belong to an earlier transmission.
        if (it->second.retries == 0) {
          observe_rtt(it->second.path_index,
                      router_.simulator().now() - it->second.sent_at);
        }
        path_health_[it->second.path_index].consecutive_timeouts = 0;
      }
      ++acks_matched_;
      ++paths_[it->second.path_index].acks;
      path_health_[it->second.path_index].consecutive_nacks = 0;
      seg_acked_ctr_->inc();
      end_segment_span(it->second, "acked");
      pending_segments_.erase(it);
    }
    // An ack on a path still pending from combined construction confirms
    // the path end to end.
    if (paths_[path_index].state == PathState::kPending) {
      paths_[path_index].state = PathState::kEstablished;
    }
    ++acks_received_;
    if (ack_handler_) {
      ack_handler_(core.message_id, core.segment_index, path_index);
    }
    return;
  }

  if (core.type == ReverseCore::Type::kCorruptNack) {
    // The responder's verdict that a segment sent down this path arrived
    // tampered with. Evidence first, then recovery.
    nacks_rx_ctr_->inc();
    report_path_suspicion(path_index, kCorruptSuspicion, susp_corrupt_ctr_);
    // Recovery comes with segment_auth; without it a stray verdict is
    // evidence only and the pending entry keeps its timer.
    if (!config_.segment_auth) return;

    const std::uint64_t key = pending_key(core.message_id, core.segment_index);
    const auto it = pending_segments_.find(key);
    if (it != pending_segments_.end() &&
        it->second.path_index == path_index) {
      // The transmission is conclusively lost — no point waiting out its
      // timer. Retransmit on a different established path while retry
      // budget remains; otherwise close the ledger on it.
      router_.simulator().cancel(it->second.timeout_event);
      std::optional<std::size_t> target;
      if (it->second.retries < config_.max_segment_retries) {
        target = next_established_path(path_index, /*may_reuse=*/false);
      }
      if (target.has_value()) {
        PendingSegment seg = take_for_resend(it, "retransmitted_after_nack");
        ++seg.retries;
        send_segment_on_path(*target, std::move(seg));
      } else {
        expire_segment(key);
      }
    }

    PathHealth& health = path_health_[path_index];
    ++health.consecutive_nacks;
    if (health.consecutive_nacks >= kNackFailThreshold) {
      // Sustained corruption on this path: declare it failed and let the
      // existing rebuild/top-up machinery provision a replacement (with
      // relay_suspicion on, the replacement avoids the suspects).
      health.consecutive_nacks = 0;
      mark_path_failed(path_index);
    }
    return;
  }

  // Response segment: reassemble like the responder does, keyed by
  // (message id, response id) so repeated responses are each delivered.
  const std::uint64_t response_key =
      core.message_id ^
      (static_cast<std::uint64_t>(core.response_id) * 0xff51afd7ed558ccdULL);
  auto [it, inserted] = responses_.try_emplace(response_key);
  ResponseReassembly& reassembly = it->second;
  if (inserted) {
    reassembly.needed = core.needed_segments;
    reassembly.total = core.total_segments;
    reassembly.original_size = core.original_size;
  }
  bool duplicate = false;
  for (const auto& seg : reassembly.segments) {
    if (seg.index == core.segment_index) {
      duplicate = true;
      break;
    }
  }
  if (!duplicate) {
    erasure::Segment seg;
    seg.index = core.segment_index;
    seg.data = core.segment;
    reassembly.segments.push_back(std::move(seg));
  }
  if (!reassembly.delivered &&
      reassembly.segments.size() >= reassembly.needed) {
    const auto decoded = router_.codec_for(reassembly.needed, reassembly.total)
                             .decode(reassembly.segments,
                                     reassembly.original_size);
    if (decoded.has_value()) {
      reassembly.delivered = true;
      if (response_handler_) response_handler_(core.message_id, *decoded);
    }
  }
}

MessageId Session::send_message_on_demand(ByteView data) {
  const SimTime now = router_.simulator().now();

  // (Re)provision every unbuilt/failed path with fresh relays and keys;
  // their construction rides the payload message itself. The exclusion is
  // wider than a rebuild's: failed slots keep their relays out too.
  std::vector<bool> needs_construction(paths_.size(), false);
  for (std::size_t index = 0; index < paths_.size(); ++index) {
    const PathState state = paths_[index].state;
    if (state == PathState::kEstablished || state == PathState::kPending) {
      continue;
    }
    auto selected =
        select_relays(1, now, other_relays(index, /*live_only=*/false));
    if (!selected.has_value()) continue;
    provision_path(index, std::move((*selected)[0]));
    paths_[index].sid = router_.new_initiator_sid(initiator_);
    register_reverse(index);
    needs_construction[index] = true;
  }

  const auto [id, digest] = start_message(data, /*on_demand=*/true);
  const Allocation alloc = allocate_even(config_.erasure);
  obs::CorrelationScope corr_scope(id);
  bool sent_any = false;
  for (std::size_t s = 0; s < encode_scratch_.size(); ++s) {
    const std::size_t path_index = alloc[s];
    const PathInfo& path = paths_[path_index];
    if (path.state != PathState::kEstablished &&
        path.state != PathState::kPending) {
      continue;
    }
    sent_any = true;
    const erasure::Segment& segment = encode_scratch_[s];
    PendingSegment seg{.message_id = id,
                       .segment_index = segment.index,
                       .segment = segment,
                       .original_size = data.size(),
                       .digest = digest};
    if (!needs_construction[path_index]) {
      // Established, or a later segment following the construct message
      // down the same path: FIFO per-hop delivery means the state is cached
      // by the time it arrives.
      send_segment_on_path(path_index, std::move(seg));
      continue;
    }
    // First segment on this new path: combined construct + payload. The
    // end-to-end ack confirms both the path and the delivery; a timed-out
    // pending combined path is simply failed (fail_pending_path).
    needs_construction[path_index] = false;
    const Bytes onion_blob = router_.onion().build_path_onion(
        path.relays, keys_[path_index].relay_keys, responder_,
        router_.directory(), rng_);
    const std::uint64_t seq = keys_[path_index].next_seq++;
    const Bytes blob = seal_segment(path_index, seq, seg);
    begin_segment_span(path_index, seg, /*combined_construct=*/true);
    router_.send_construct_with_payload(initiator_, path.sid,
                                        path.relays.front(), seq, onion_blob,
                                        blob);
    track_segment(path_index, std::move(seg), /*fail_pending_path=*/true);
  }
  return sent_any ? id : 0;
}

void Session::teardown() {
  torn_down_ = true;
  if (construct_backoff_event_ != sim::kInvalidEventId) {
    router_.simulator().cancel(construct_backoff_event_);
    construct_backoff_event_ = sim::kInvalidEventId;
  }
  // Drain un-acked segments: no ack can arrive once the paths are gone,
  // so account for them now instead of leaking pending entries.
  while (!pending_segments_.empty()) {
    const auto it = pending_segments_.begin();
    router_.simulator().cancel(it->second.timeout_event);
    expire_segment(it->first);
  }
  for (std::size_t index = 0; index < paths_.size(); ++index) {
    release_path(index);
    paths_[index].relays.clear();
  }
}

}  // namespace p2panon::anon
