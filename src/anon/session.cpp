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
      selector_(config.mix_choice, rng_.fork(),
                StalenessPolicy{.enabled = config.staleness_aware}),
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
    // Registered only when the mode is on, so default-off registries stay
    // byte-identical to the pre-feature baseline.
    stale_fallbacks_ctr_ = reg.counter("anon_mix_stale_fallbacks_total");
    biased_selects_ctr_ = reg.counter("anon_mix_biased_selects_total");
  }
  paths_.resize(config_.erasure.k);
  path_info_.resize(config_.erasure.k);
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
  for (const Path& path : paths_) {
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
    Path& path = paths_[index];
    if (path.sid != 0) {
      router_.unregister_reverse_handler(initiator_, path.sid);
    }
    path = Path{};
    path.relays = (*selected)[index];
    path.relay_keys.reserve(path.relays.size());
    for (std::size_t i = 0; i < path.relays.size(); ++i) {
      path.relay_keys.push_back(crypto::random_symmetric_key(rng_));
    }
    path.responder_key = crypto::random_symmetric_key(rng_);
    path.state = PathState::kPending;
    sync_path_info(index);

    build_path(index, [this, index](bool ok) {
      Path& built = paths_[index];
      built.state = ok ? PathState::kEstablished : PathState::kFailed;
      sync_path_info(index);
      if (--attempt_outstanding_ == 0) finish_attempt();
    });
  }
}

void Session::build_path(std::size_t index, std::function<void(bool)> done) {
  Path& path = paths_[index];
  const SimTime started = router_.simulator().now();
  const StreamId sid = router_.initiate_path(
      initiator_, path.relays, path.relay_keys, responder_,
      config_.construct_timeout,
      [this, index, started, alive = alive_, done = std::move(done)](bool ok) {
        if (!*alive) return;
        if (ok && config_.adaptive_timeouts) {
          // Fresh relay set: restart the estimator, seeded by the
          // construction round trip over the very same relays.
          path_health_[index].rtt_valid = false;
          observe_rtt(index, router_.simulator().now() - started);
        }
        done(ok);
      });
  path.sid = sid;
  router_.register_reverse_handler(
      initiator_, sid,
      [this, index, alive = alive_](const ReverseDelivery& delivery) {
        if (!*alive) return;
        on_reverse(index, delivery);
      });
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
    Path& path = paths_[index];
    if (path.state == PathState::kEstablished && path.sid != 0 &&
        !path.relays.empty()) {
      router_.send_teardown(initiator_, path.sid, path.relays.front());
    }
    if (path.sid != 0) {
      router_.unregister_reverse_handler(initiator_, path.sid);
      path.sid = 0;
    }
    path.state = PathState::kUnbuilt;
    sync_path_info(index);
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
  for (std::size_t index : missing) {
    // Exclude relays of every kept path (and of top-ups already started
    // this round, whose relays are in place by now) for disjointness.
    std::vector<NodeId> exclude;
    for (std::size_t j = 0; j < paths_.size(); ++j) {
      if (j == index) continue;
      if (paths_[j].state == PathState::kEstablished ||
          paths_[j].state == PathState::kPending) {
        exclude.insert(exclude.end(), paths_[j].relays.begin(),
                       paths_[j].relays.end());
      }
    }
    const SimTime now = router_.simulator().now();
    auto selected = select_relays(1, now, exclude);
    if (!selected.has_value()) {
      // No disjoint relays for this slot right now; leave it for the
      // next round.
      --attempt_outstanding_;
      continue;
    }
    Path& path = paths_[index];
    if (path.sid != 0) {
      router_.unregister_reverse_handler(initiator_, path.sid);
    }
    path = Path{};
    path.relays = std::move((*selected)[0]);
    path.relay_keys.reserve(path.relays.size());
    for (std::size_t i = 0; i < path.relays.size(); ++i) {
      path.relay_keys.push_back(crypto::random_symmetric_key(rng_));
    }
    path.responder_key = crypto::random_symmetric_key(rng_);
    path.state = PathState::kPending;
    sync_path_info(index);
    ++started;

    build_path(index, [this, index](bool ok) {
      Path& built = paths_[index];
      built.state = ok ? PathState::kEstablished : PathState::kFailed;
      sync_path_info(index);
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
  for (const Path& path : paths_) {
    if (path.state == PathState::kEstablished) ++count;
  }
  return count;
}

MessageId Session::send_message(ByteView data) {
  return send_message(data, SegmentPriority::kInteractive);
}

MessageId Session::send_message(ByteView data, SegmentPriority priority) {
  const auto usable = usable_paths();
  if (usable.empty()) return 0;

  // Bounded send queue: refuse the whole message up front when the pending
  // ledger has no room for its segments. Bulk is refused earlier (at 3/4 of
  // the bound), keeping headroom for interactive traffic. The check
  // precedes the id draw so a shed message costs zero RNG draws — off-state
  // runs never reach it.
  if (config_.max_inflight_segments > 0) {
    std::size_t limit = config_.max_inflight_segments;
    if (priority == SegmentPriority::kBulk) limit = limit * 3 / 4;
    if (pending_segments_.size() + config_.erasure.n > limit) {
      ++messages_shed_;
      const bool hard_full = pending_segments_.size() + config_.erasure.n >
                             config_.max_inflight_segments;
      (hard_full ? shed_queue_ctr_ : shed_headroom_ctr_)->inc();
      return 0;
    }
  }

  MessageId id;
  do {
    id = rng_.next_u64();
  } while (id == 0);

  // Encode with the session codec (cached in the router's codec table so
  // RS matrices are not rebuilt per message) into the session's scratch
  // vector, reusing the segment buffers across messages.
  session_codec().encode_into(data, encode_scratch_);
  const auto& segments = encode_scratch_;

  // One digest per message, reused by every segment's trailer (and kept in
  // the pending ledger so retransmits carry it too). Zero bytes of work
  // with segment_auth off.
  crypto::MessageDigest digest{};
  if (config_.segment_auth) digest = crypto::message_digest(data);

  const Allocation alloc = allocate_even(config_.erasure);
  ++messages_sent_;
  msgs_ctr_->inc();
  // Segment sends, their delay timers, and every retransmit they spawn all
  // inherit the message id as correlation: the trace groups the message's
  // whole causal tree under one id.
  obs::CorrelationScope corr_scope(id);
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::TraceArgs args;
    args.add("bytes", static_cast<std::uint64_t>(data.size()))
        .add("segments", static_cast<std::uint64_t>(segments.size()));
    tracer.instant("anon", "message_send", id, args);
  }
  const SimTime now = router_.simulator().now();
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const std::size_t path_index = alloc[s];
    if (paths_[path_index].state != PathState::kEstablished) continue;
    if (priority == SegmentPriority::kBulk &&
        congested_until_[path_index] > now) {
      // A relay on this path recently shed under load: hold bulk segments
      // back (the erasure code absorbs the loss if enough paths are clear)
      // rather than feeding the hotspot.
      ++segments_deferred_;
      shed_congested_ctr_->inc();
      continue;
    }
    send_segment_on_path(path_index, id, segments[s], data.size(),
                         /*retries=*/0, digest, priority);
  }
  return id;
}

void Session::apply_auth_trailer(PayloadCore& core, const Path& path,
                                 const crypto::MessageDigest& digest) const {
  if (!config_.segment_auth) return;
  core.auth_flags = PayloadCore::kAuthTagged;
  core.message_digest = digest;
  core.auth_tag = crypto::segment_tag(
      crypto::derive_segment_auth_key(path.responder_key), core.message_id,
      core.segment_index, core.original_size, core.needed_segments,
      core.total_segments, digest, core.segment);
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
                                   MessageId message_id,
                                   const erasure::Segment& segment,
                                   std::size_t original_size,
                                   std::size_t retries,
                                   const crypto::MessageDigest& digest,
                                   SegmentPriority priority) {
  // Rebuild-driven resends arrive here from a construct-ack chain; pin the
  // correlation back to the message so the timeout event and the relay
  // hops below stay on the message's causal tree.
  obs::CorrelationScope corr_scope(message_id);
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::TraceArgs args;
    args.add("segment", static_cast<std::uint64_t>(segment.index))
        .add("path", static_cast<std::uint64_t>(path_index))
        .add("retries", static_cast<std::uint64_t>(retries));
    tracer.span_begin("anon",
                      retries == 0 ? "segment" : "segment_retransmit",
                      message_id, args);
  }
  Path& path = paths_[path_index];
  PayloadCore core;
  core.message_id = message_id;
  core.segment_index = segment.index;
  core.original_size = static_cast<std::uint32_t>(original_size);
  core.needed_segments = static_cast<std::uint16_t>(config_.erasure.m);
  core.total_segments = static_cast<std::uint16_t>(config_.erasure.n);
  core.segment = segment.data;
  core.responder_key = path.responder_key;
  apply_auth_trailer(core, path, digest);

  Bytes blob = router_.onion().seal_payload_core(
      core, router_.directory().public_key(responder_), rng_);
  const std::uint64_t seq = path.next_seq++;
  blob.reserve(blob.size() +
               path.relay_keys.size() * router_.onion().layer_overhead());
  for (std::size_t i = path.relay_keys.size(); i-- > 0;) {
    router_.onion().wrap_layer_in_place(path.relay_keys[i], seq, blob);
  }
  router_.send_payload(initiator_, path.sid, path.relays.front(), seq,
                       std::move(blob), priority);
  ++segments_sent_;
  path_info_[path_index].sends++;
  seg_sent_ctr_->inc();

  // Register the pending ack with its timeout. With adaptive timeouts the
  // wait is the path's current RTO, doubled for every retry already spent
  // on this segment; otherwise the fixed ack_timeout.
  SimDuration timeout = config_.ack_timeout;
  if (config_.adaptive_timeouts) {
    timeout = current_rto(path_index);
    const std::size_t shift = std::min<std::size_t>(retries, 6);
    timeout = std::min(timeout << shift, kRtoMax);
  }
  const std::uint64_t key = pending_key(message_id, segment.index);
  PendingSegment pending;
  pending.message_id = message_id;
  pending.segment_index = segment.index;
  pending.segment = segment;
  pending.original_size = original_size;
  pending.path_index = path_index;
  pending.sent_at = router_.simulator().now();
  pending.retries = retries;
  pending.digest = digest;
  pending.priority = priority;
  static const auto kSegmentTimerEvent =
      obs::capacity::event_type("session.timer");
  pending.timeout_event = router_.simulator().schedule_after(
      timeout,
      [this, key, alive = alive_] {
        if (!*alive) return;
        on_segment_timeout(key, /*fail_pending_path=*/false);
      },
      kSegmentTimerEvent);
  pending_segments_[key] = std::move(pending);
}

void Session::on_segment_timeout(std::uint64_t key, bool fail_pending_path) {
  const auto it = pending_segments_.find(key);
  if (it == pending_segments_.end()) return;
  const std::size_t failed_path = it->second.path_index;
  ++failures_detected_;
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
    ++stalls_suppressed_;
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
      std::size_t target = paths_.size();
      for (std::size_t step = 1; step <= paths_.size(); ++step) {
        const std::size_t candidate = (failed_path + step) % paths_.size();
        if (paths_[candidate].state != PathState::kEstablished) continue;
        if (declare_failed && candidate == failed_path) continue;
        target = candidate;
        break;
      }
      if (target < paths_.size()) {
        const PendingSegment seg = std::move(it->second);
        pending_segments_.erase(it);
        ++segments_retransmitted_;
        seg_retx_ctr_->inc();
        end_segment_span(seg, "retransmitted");
        if (declare_failed) mark_path_failed(failed_path);
        send_segment_on_path(target, seg.message_id, seg.segment,
                             seg.original_size, seg.retries + 1, seg.digest,
                             seg.priority);
        return;
      }
    }
    // Retry budget exhausted (or no surviving path): the segment is lost
    // for good and the ledger records it.
    expire_segment(key);
    Path& p = paths_[failed_path];
    if (fail_pending_path && p.state == PathState::kPending) {
      p.state = PathState::kFailed;
      sync_path_info(failed_path);
      if (path_failure_handler_) path_failure_handler_(failed_path);
      if (config_.auto_reconstruct) schedule_rebuild(failed_path);
    } else if (declare_failed) {
      mark_path_failed(failed_path);
    }
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
  if (fail_pending_path) {
    // A pending combined path that times out is simply failed.
    Path& p = paths_[failed_path];
    if (p.state == PathState::kPending) {
      p.state = PathState::kFailed;
      sync_path_info(failed_path);
      if (path_failure_handler_) path_failure_handler_(failed_path);
      if (config_.auto_reconstruct) rebuild_path(failed_path);
      return;
    }
  }
  mark_path_failed(failed_path);
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
  Path& path = paths_[path_index];
  if (path.state != PathState::kEstablished) return;
  path.state = PathState::kFailed;
  sync_path_info(path_index);
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
  std::vector<NodeId> exclude;
  for (std::size_t j = 0; j < paths_.size(); ++j) {
    if (j == path_index) continue;
    if (paths_[j].state == PathState::kEstablished ||
        paths_[j].state == PathState::kPending) {
      exclude.insert(exclude.end(), paths_[j].relays.begin(),
                     paths_[j].relays.end());
    }
  }
  const SimTime now = router_.simulator().now();
  auto selected = select_relays(1, now, exclude);
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

  Path& path = paths_[path_index];
  if (path.sid != 0) {
    router_.unregister_reverse_handler(initiator_, path.sid);
  }
  const std::uint64_t rebuilds = path_info_[path_index].rebuilds + 1;
  path = Path{};
  path.relays = (*selected)[0];
  for (std::size_t i = 0; i < path.relays.size(); ++i) {
    path.relay_keys.push_back(crypto::random_symmetric_key(rng_));
  }
  path.responder_key = crypto::random_symmetric_key(rng_);
  path.state = PathState::kPending;
  path_info_[path_index].rebuilds = rebuilds;
  sync_path_info(path_index);

  build_path(path_index, [this, path_index](bool ok) {
    Path& built = paths_[path_index];
    built.state = ok ? PathState::kEstablished : PathState::kFailed;
    sync_path_info(path_index);
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
  for (const PendingSegment& pending : to_resend) {
    end_segment_span(pending, "resent_on_rebuild");
    send_segment_on_path(new_path_index, pending.message_id, pending.segment,
                         pending.original_size, /*retries=*/0,
                         pending.digest, pending.priority);
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
  Path& path = paths_[path_index];
  // Strip the relay layers (R_1 outermost) and the responder-core layer,
  // all in place in the session-owned scratch buffer.
  Bytes& blob = reverse_scratch_;
  blob.assign(delivery.blob.begin(), delivery.blob.end());
  const std::uint64_t seq = delivery.seq | AnonRouter::kReverseBit;
  for (const RelayKey& key : path.relay_keys) {
    if (!router_.onion().unwrap_layer_in_place(key, seq, blob)) return;
  }
  if (!router_.onion().unwrap_layer_in_place(path.responder_key, seq, blob)) {
    return;
  }
  const auto core = parse_reverse_core(blob);
  if (!core.has_value()) return;
  handle_reverse_core(path_index, *core);
}

void Session::on_backpressure(std::size_t path_index) {
  ++backpressure_rx_;
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
      path_info_[it->second.path_index].acks++;
      path_health_[it->second.path_index].consecutive_nacks = 0;
      seg_acked_ctr_->inc();
      end_segment_span(it->second, "acked");
      pending_segments_.erase(it);
    }
    // An ack on a path still pending from combined construction confirms
    // the path end to end.
    if (paths_[path_index].state == PathState::kPending) {
      paths_[path_index].state = PathState::kEstablished;
      sync_path_info(path_index);
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
    ++nacks_received_;
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
      std::size_t target = paths_.size();
      if (it->second.retries < config_.max_segment_retries) {
        for (std::size_t step = 1; step < paths_.size(); ++step) {
          const std::size_t candidate = (path_index + step) % paths_.size();
          if (paths_[candidate].state != PathState::kEstablished) continue;
          target = candidate;
          break;
        }
      }
      if (target < paths_.size()) {
        const PendingSegment seg = std::move(it->second);
        pending_segments_.erase(it);
        ++segments_retransmitted_;
        seg_retx_ctr_->inc();
        end_segment_span(seg, "retransmitted_after_nack");
        send_segment_on_path(target, seg.message_id, seg.segment,
                             seg.original_size, seg.retries + 1, seg.digest,
                             seg.priority);
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
    const auto decoded = session_codec_for(reassembly.needed, reassembly.total)
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
  // their construction rides the payload message itself.
  std::vector<bool> needs_construction(paths_.size(), false);
  for (std::size_t index = 0; index < paths_.size(); ++index) {
    Path& path = paths_[index];
    if (path.state == PathState::kEstablished ||
        path.state == PathState::kPending) {
      continue;
    }
    std::vector<NodeId> exclude;
    for (std::size_t j = 0; j < paths_.size(); ++j) {
      if (j != index) {
        exclude.insert(exclude.end(), paths_[j].relays.begin(),
                       paths_[j].relays.end());
      }
    }
    auto selected = select_relays(1, now, exclude);
    if (!selected.has_value()) continue;
    if (path.sid != 0) {
      router_.unregister_reverse_handler(initiator_, path.sid);
    }
    const std::uint64_t rebuilds = path_info_[index].rebuilds;
    path = Path{};
    path.relays = (*selected)[0];
    for (std::size_t i = 0; i < path.relays.size(); ++i) {
      path.relay_keys.push_back(crypto::random_symmetric_key(rng_));
    }
    path.responder_key = crypto::random_symmetric_key(rng_);
    path.sid = router_.new_initiator_sid(initiator_);
    path.state = PathState::kPending;
    path_info_[index].rebuilds = rebuilds;
    router_.register_reverse_handler(
        initiator_, path.sid,
        [this, index, alive = alive_](const ReverseDelivery& delivery) {
          if (!*alive) return;
          on_reverse(index, delivery);
        });
    needs_construction[index] = true;
    sync_path_info(index);
  }

  MessageId id;
  do {
    id = rng_.next_u64();
  } while (id == 0);

  session_codec().encode_into(data, encode_scratch_);
  const auto& segments = encode_scratch_;
  crypto::MessageDigest digest{};
  if (config_.segment_auth) digest = crypto::message_digest(data);
  const Allocation alloc = allocate_even(config_.erasure);
  ++messages_sent_;
  msgs_ctr_->inc();
  obs::CorrelationScope corr_scope(id);
  if (obs::Tracer::instance().enabled()) {
    obs::TraceArgs args;
    args.add("bytes", static_cast<std::uint64_t>(data.size()))
        .add("segments", static_cast<std::uint64_t>(segments.size()))
        .add("on_demand", static_cast<std::uint64_t>(1));
    obs::Tracer::instance().instant("anon", "message_send", id, args);
  }
  bool sent_any = false;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const std::size_t path_index = alloc[s];
    Path& path = paths_[path_index];
    if (path.state == PathState::kEstablished) {
      send_segment_on_path(path_index, id, segments[s], data.size(),
                           /*retries=*/0, digest);
      sent_any = true;
    } else if (path.state == PathState::kPending) {
      if (needs_construction[path_index]) {
        // First segment on this new path: combined construct + payload.
        needs_construction[path_index] = false;
        const Bytes onion_blob = router_.onion().build_path_onion(
            path.relays, path.relay_keys, responder_, router_.directory(),
            rng_);
        PayloadCore core;
        core.message_id = id;
        core.segment_index = segments[s].index;
        core.original_size = static_cast<std::uint32_t>(data.size());
        core.needed_segments = static_cast<std::uint16_t>(config_.erasure.m);
        core.total_segments = static_cast<std::uint16_t>(config_.erasure.n);
        core.segment = segments[s].data;
        core.responder_key = path.responder_key;
        apply_auth_trailer(core, path, digest);
        Bytes blob = router_.onion().seal_payload_core(
            core, router_.directory().public_key(responder_), rng_);
        const std::uint64_t seq = path.next_seq++;
        blob.reserve(blob.size() +
                     path.relay_keys.size() * router_.onion().layer_overhead());
        for (std::size_t i = path.relay_keys.size(); i-- > 0;) {
          router_.onion().wrap_layer_in_place(path.relay_keys[i], seq, blob);
        }
        if (obs::Tracer::instance().enabled()) {
          obs::TraceArgs args;
          args.add("segment", static_cast<std::uint64_t>(segments[s].index))
              .add("path", static_cast<std::uint64_t>(path_index))
              .add("retries", static_cast<std::uint64_t>(0))
              .add("combined_construct", static_cast<std::uint64_t>(1));
          obs::Tracer::instance().span_begin("anon", "segment", id, args);
        }
        router_.send_construct_with_payload(initiator_, path.sid,
                                            path.relays.front(), seq,
                                            onion_blob, blob);
        ++segments_sent_;
        seg_sent_ctr_->inc();
        // Track it like any pending segment: the end-to-end ack confirms
        // both the path and the delivery. A timed-out pending combined
        // path is simply failed (fail_pending_path).
        SimDuration timeout = config_.ack_timeout;
        if (config_.adaptive_timeouts) timeout = current_rto(path_index);
        const std::uint64_t key = pending_key(id, segments[s].index);
        PendingSegment pending;
        pending.message_id = id;
        pending.segment_index = segments[s].index;
        pending.segment = segments[s];
        pending.original_size = data.size();
        pending.path_index = path_index;
        pending.sent_at = now;
        pending.digest = digest;
        static const auto kResendTimerEvent =
            obs::capacity::event_type("session.timer");
        pending.timeout_event = router_.simulator().schedule_after(
            timeout,
            [this, key, alive = alive_] {
              if (!*alive) return;
              on_segment_timeout(key, /*fail_pending_path=*/true);
            },
            kResendTimerEvent);
        pending_segments_[key] = std::move(pending);
        sent_any = true;
      } else {
        // Later segments follow the construct message down the same path;
        // FIFO per-hop delivery means the state is cached by the time
        // they arrive.
        send_segment_on_path(path_index, id, segments[s], data.size(),
                             /*retries=*/0, digest);
        sent_any = true;
      }
    }
  }
  return sent_any ? id : 0;
}

void Session::redirect(NodeId new_responder, RedirectHandler handler) {
  responder_ = new_responder;
  // Fresh responder keys: the old responder must not be able to read
  // traffic intended for the new one.
  for (Path& path : paths_) {
    path.responder_key = crypto::random_symmetric_key(rng_);
  }

  auto remaining = std::make_shared<std::size_t>(0);
  auto succeeded = std::make_shared<std::size_t>(0);
  auto done = std::make_shared<RedirectHandler>(std::move(handler));
  for (std::size_t index = 0; index < paths_.size(); ++index) {
    Path& path = paths_[index];
    if (path.state != PathState::kEstablished) continue;
    ++*remaining;
  }
  if (*remaining == 0) {
    (*done)(0);
    return;
  }
  for (std::size_t index = 0; index < paths_.size(); ++index) {
    Path& path = paths_[index];
    if (path.state != PathState::kEstablished) continue;
    // Layer the 4-byte destination so only the last relay can read it.
    Bytes blob;
    blob.reserve(4 +
                 path.relay_keys.size() * router_.onion().layer_overhead());
    put_u32be(blob, new_responder);
    const std::uint64_t seq = path.next_seq++;
    for (std::size_t i = path.relay_keys.size(); i-- > 0;) {
      router_.onion().wrap_layer_in_place(path.relay_keys[i], seq, blob);
    }
    router_.send_retarget(
        initiator_, path.sid, path.relays.front(), seq, std::move(blob),
        config_.construct_timeout,
        [this, index, remaining, succeeded, done,
         alive = alive_](bool ok) {
          if (!*alive) return;
          if (ok) {
            ++*succeeded;
          } else {
            mark_path_failed(index);
          }
          if (--*remaining == 0) (*done)(*succeeded);
        });
  }
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
    Path& path = paths_[index];
    if (path.state == PathState::kEstablished && !path.relays.empty()) {
      router_.send_teardown(initiator_, path.sid, path.relays.front());
    }
    if (path.sid != 0) {
      router_.unregister_reverse_handler(initiator_, path.sid);
    }
    path = Path{};
    sync_path_info(index);
  }
}

void Session::sync_path_info(std::size_t index) {
  path_info_[index].relays = paths_[index].relays;
  path_info_[index].state = paths_[index].state;
  path_info_[index].sid = paths_[index].sid;
}

std::vector<std::size_t> Session::usable_paths() const {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < paths_.size(); ++j) {
    if (paths_[j].state == PathState::kEstablished) out.push_back(j);
  }
  return out;
}

const erasure::Codec& Session::session_codec() {
  return session_codec_for(config_.erasure.m, config_.erasure.n);
}

const erasure::Codec& Session::session_codec_for(std::size_t m,
                                                 std::size_t n) {
  return router_.codec_for(m, n);
}

}  // namespace p2panon::anon
