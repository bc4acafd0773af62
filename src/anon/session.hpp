// Initiator-side multipath session (paper §4.1, §4.2, §4.5, §4.7).
//
// A Session owns one communication relationship (initiator -> responder)
// parameterized by ErasureParams (m, n, k) and a mix choice. It:
//   * constructs the k node-disjoint onion paths, retrying with a fresh
//     relay set until the protocol's success condition holds (>= ceil(m /
//     (n/k)) paths formed) or the attempt budget is exhausted;
//   * erasure-codes outgoing messages and spreads the segments evenly
//     over the paths;
//   * tracks per-segment end-to-end acks, declares a path failed on ack
//     timeout (§4.5), and can automatically rebuild failed paths and
//     resend their pending segments;
//   * optionally monitors relay liveness predictors and proactively
//     replaces paths whose weakest relay drops below a threshold (§4.5);
//   * reassembles coded responses arriving on the reverse paths.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "anon/allocation.hpp"
#include "anon/mix_selector.hpp"
#include "anon/router.hpp"
#include "crypto/segment_auth.hpp"
#include "membership/node_cache.hpp"
#include "obs/metrics.hpp"

namespace p2panon::anon {

struct SessionConfig {
  std::size_t path_length = 3;  // L
  ErasureParams erasure{};
  MixChoice mix_choice = MixChoice::kRandom;
  SimDuration construct_timeout = 5 * kSecond;
  SimDuration ack_timeout = 5 * kSecond;
  std::size_t max_construct_attempts = 100;
  bool auto_reconstruct = false;
  double replace_threshold = 0.0;     // > 0 enables proactive replacement
  SimDuration replace_check_interval = 30 * kSecond;

  // --- resilience switches (all default OFF: with every switch off,
  // behavior, the wire format, timings, and RNG draws are the
  // paper-reproduction configuration above). Their tuning constants live
  // in session.cpp (DESIGN §4, §8, §13). ---

  /// Adaptive failure handling. TCP-style per-path retransmission timers:
  /// RTO = SRTT + 4 * RTTVAR (Jacobson/Karels), clamped to [500 ms, 30 s],
  /// seeded from the construction round trip and updated from
  /// first-transmission acks (Karn's algorithm); until the first sample,
  /// `ack_timeout` applies. A timed-out segment is resent on the next
  /// established path (round-robin, doubled timeout per retry) up to
  /// max_segment_retries times, and a path is only declared failed after
  /// path_fail_threshold consecutive timeouts. Construction and rebuild
  /// retries back off exponentially instead of retrying at once:
  /// delay_i = min(250 ms * 2^i, 10 s), jittered to [delay/2, delay] from
  /// the session's own RNG stream.
  bool adaptive_timeouts = false;
  /// Retransmission budget per segment: timeout retries in adaptive mode,
  /// corrupt-nack re-routes under segment_auth.
  std::size_t max_segment_retries = 2;
  std::size_t path_fail_threshold = 3;

  /// Construction succeeds only once ALL k paths are established, not
  /// just min_paths() of them. Attempts that establish at least one path
  /// keep the winners and re-provision only the missing paths ("top-up")
  /// instead of the paper's whole-set retry. Off by default: partial
  /// provisioning is the paper's behavior and what the seed tests pin.
  bool require_full_construction = false;

  /// Corruption resilience. Appends the keyed auth trailer
  /// ([flags][digest][tag]) to every outgoing segment: a 16-byte
  /// whole-message digest plus a 16-byte HMAC tag keyed from the path's
  /// responder key (crypto/segment_auth). The responder verifies each tag
  /// before admitting the segment to reconstruction, falls back to a
  /// digest-validated subset search, and answers corrupted segments with a
  /// corrupt-nack instead of an ack. The session escalates on those
  /// verdicts: a nacked segment is re-sent on another established path
  /// (within max_segment_retries), and a path with 3 consecutive nacks is
  /// declared failed, handing it to the rebuild/top-up machinery.
  bool segment_auth = false;
  /// Feeds corruption verdicts (weight 1 per relay) and ack-timeout stalls
  /// (weight 0.25) into the cache's behavioral-suspicion table, which
  /// biases and quarantines mix choice. Needs the cache owner to have
  /// called enable_suspicion(); reports are silently dropped otherwise.
  bool relay_suspicion = false;

  /// Staleness-aware mix selection with StalenessPolicy's default
  /// thresholds: biased choice degrades to the random sampler while the
  /// cache is stale, and recovers the bias as membership repair catches
  /// up (DESIGN §9). Off: no cache-age scan, no extra obs series.
  bool staleness_aware = false;

  /// Bounded sender queue: send_message refuses the whole message (returns
  /// 0) when placing its n segments would push the pending-ack ledger past
  /// this many in-flight segments; bulk is refused already at 3/4 of the
  /// bound, keeping headroom for interactive traffic. 0 = unbounded.
  /// Retransmissions of already-placed segments bypass the bound — they
  /// replace ledger entries rather than adding new ones.
  std::size_t max_inflight_segments = 0;
};

enum class PathState { kUnbuilt, kPending, kEstablished, kFailed };

class Session {
 public:
  using ConstructHandler = std::function<void(bool ok, std::size_t attempts)>;
  using AckHandler = std::function<void(MessageId id, std::uint32_t segment,
                                        std::size_t path_index)>;
  using ResponseHandler = std::function<void(MessageId id, Bytes data)>;
  using PathFailureHandler = std::function<void(std::size_t path_index)>;
  /// Fires when a segment is abandoned for good (timeout with no retry
  /// budget left, or drained at teardown) — the chaos harness uses it to
  /// prove every sent message is either delivered or accounted as failed.
  using SegmentExpiryHandler = std::function<void(
      MessageId id, std::uint32_t segment, std::size_t path_index)>;

  Session(AnonRouter& router, const membership::NodeCache& cache,
          NodeId initiator, NodeId responder, SessionConfig config, Rng rng);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Builds the path set asynchronously; the handler fires with the total
  /// number of whole-set attempts used.
  void construct(ConstructHandler handler);

  /// True when enough paths are established to deliver a message.
  bool ready() const;
  std::size_t established_paths() const;

  /// Erasure-codes `data` and sends the segments over the current paths.
  /// Returns the message id (0 if no path is usable, or if the bounded
  /// sender queue refused the message under overload).
  MessageId send_message(ByteView data);
  /// Same, carrying an explicit traffic class. The priority shapes relay
  /// shedding (overload mode only) and the sender-side bound; the no-arg
  /// overload sends at kInteractive, the legacy-equivalent class.
  MessageId send_message(ByteView data, SegmentPriority priority);

  /// Path reuse (§4.4): re-points every established path at a new
  /// responder WITHOUT rebuilding them (no asymmetric construction cost).
  /// Intermediate relays never learn the new destination; each path's last
  /// relay rewires its cached state and acks. The handler fires once with
  /// the number of paths successfully redirected; subsequent
  /// send_message() calls go to the new responder. Fresh responder keys
  /// are generated so the old responder cannot read future traffic.
  using RedirectHandler = std::function<void(std::size_t paths_redirected)>;
  void redirect(NodeId new_responder, RedirectHandler handler);

  /// On-demand combined construction + sending (§4.2): like
  /// send_message(), but paths that are unbuilt or failed are (re)built by
  /// the very message that carries their segment — no up-front construct()
  /// round trip and no message delay. A rebuilt path counts as established
  /// when its segment's end-to-end ack returns. Returns the message id
  /// (always nonzero: there is always at least a path being formed, as
  /// long as the cache has enough relays — 0 otherwise).
  MessageId send_message_on_demand(ByteView data);

  /// Releases relay state on every live path.
  void teardown();

  void set_ack_handler(AckHandler handler) { ack_handler_ = std::move(handler); }
  void set_response_handler(ResponseHandler handler) {
    response_handler_ = std::move(handler);
  }
  void set_path_failure_handler(PathFailureHandler handler) {
    path_failure_handler_ = std::move(handler);
  }
  void set_segment_expiry_handler(SegmentExpiryHandler handler) {
    segment_expiry_handler_ = std::move(handler);
  }

  struct PathInfo {
    std::vector<NodeId> relays;
    PathState state = PathState::kUnbuilt;
    StreamId sid = 0;
    std::uint64_t rebuilds = 0;
    // Per-path traffic tallies (survive rebuilds — they describe the slot,
    // not one incarnation). The health scoreboard windows these to detect
    // paths that are nominally established but no longer acking.
    std::uint64_t sends = 0;  // segments sent on this path slot
    std::uint64_t acks = 0;   // acks matched to segments sent on it
  };
  const std::vector<PathInfo>& paths() const { return path_info_; }

  // --- statistics ---
  std::size_t construct_attempts() const { return construct_attempts_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t acks_received() const { return acks_received_; }
  std::uint64_t path_failures_detected() const { return failures_detected_; }
  std::uint64_t proactive_replacements() const { return proactive_replacements_; }
  /// Corruption verdicts (ReverseCore::kCorruptNack) received from the
  /// responder across all paths. Always counted, even with segment_auth
  /// off (a legacy session never receives any).
  std::uint64_t corrupt_nacks_received() const { return nacks_received_; }
  /// Staleness-aware selection tallies (0 unless staleness_aware): how
  /// often biased choice degraded to random because the cache was stale.
  std::uint64_t mix_stale_fallbacks() const {
    return selector_.stale_fallbacks();
  }
  std::uint64_t mix_biased_selects() const {
    return selector_.biased_selects();
  }

  // --- overload statistics (0 unless the overload knobs are on) ---
  /// Whole messages refused by the bounded sender queue (never entered
  /// the segment ledger — the caller saw message id 0).
  std::uint64_t messages_shed() const { return messages_shed_; }
  /// Segments withheld from congested paths (bulk-on-backpressure). They
  /// never entered the ledger, so the conservation identity still closes.
  std::uint64_t segments_deferred() const { return segments_deferred_; }
  /// Relay backpressure frames that reached this session (relays send them
  /// only with RouterConfig::overload.backpressure on). Each frame holds its
  /// path congested for 2 s: bulk segments are not placed on it, and its
  /// ack-timeout stalls are not filed as suspicion evidence — an
  /// overloaded-but-honest relay must not be quarantined as byzantine.
  std::uint64_t backpressure_signals() const { return backpressure_rx_; }
  /// Ack-timeout stalls NOT filed as suspicion evidence because the path
  /// had signalled overload after the segment was sent.
  std::uint64_t stalls_suppressed() const { return stalls_suppressed_; }

  // Segment ledger: every send_segment_on_path call ends in exactly one of
  // {acked, expired, retransmitted} or is still pending, so
  //   segments_sent == acks_matched + segments_expired
  //                    + segments_retransmitted + pending_segment_count
  // holds at all times — the chaos harness asserts it (no silent loss in
  // our own accounting).
  std::uint64_t acks_matched() const { return acks_matched_; }
  std::uint64_t segments_expired() const { return segments_expired_; }
  std::uint64_t segments_retransmitted() const {
    return segments_retransmitted_;
  }
  std::size_t pending_segment_count() const {
    return pending_segments_.size();
  }

  /// Current retransmission timeout for a path (the fixed ack_timeout
  /// unless adaptive mode has an RTT estimate).
  SimDuration current_rto(std::size_t path_index) const;

  NodeId initiator() const { return initiator_; }
  NodeId responder() const { return responder_; }
  const SessionConfig& config() const { return config_; }

 private:
  struct Path {
    std::vector<NodeId> relays;
    std::vector<RelayKey> relay_keys;
    RelayKey responder_key{};
    StreamId sid = 0;
    PathState state = PathState::kUnbuilt;
    std::uint64_t next_seq = 0;
  };

  struct PendingSegment {
    MessageId message_id = 0;
    std::uint32_t segment_index = 0;
    erasure::Segment segment;       // re-sendable on a rebuilt path
    std::size_t original_size = 0;
    std::size_t path_index = 0;
    sim::EventId timeout_event = sim::kInvalidEventId;
    SimTime sent_at = 0;            // RTT sampling (adaptive mode)
    std::size_t retries = 0;        // retransmissions so far (Karn)
    crypto::MessageDigest digest{};  // auth trailer for retransmits
    SegmentPriority priority = SegmentPriority::kInteractive;
  };

  /// Per-path RTT estimator and failure streaks (adaptive mode only).
  struct PathHealth {
    bool rtt_valid = false;
    double srtt_us = 0.0;
    double rttvar_us = 0.0;
    std::size_t consecutive_timeouts = 0;
    std::size_t rebuild_failures = 0;
    std::size_t consecutive_nacks = 0;  // corruption-escalation streak
  };

  void attempt_construction();
  void finish_attempt();
  void top_up_missing_paths();
  void retry_construction();
  void build_path(std::size_t index, std::function<void(bool)> done);
  void on_reverse(std::size_t path_index, const ReverseDelivery& delivery);
  void handle_reverse_core(std::size_t path_index, const ReverseCore& core);
  void send_segment_on_path(
      std::size_t path_index, MessageId message_id,
      const erasure::Segment& segment, std::size_t original_size,
      std::size_t retries = 0, const crypto::MessageDigest& digest = {},
      SegmentPriority priority = SegmentPriority::kInteractive);
  /// Relay backpressure signal arriving on a path's reverse handler.
  void on_backpressure(std::size_t path_index);
  /// Fills in the auth trailer when segment_auth is on (no-op otherwise,
  /// keeping the wire bytes identical to the seed).
  void apply_auth_trailer(PayloadCore& core, const Path& path,
                          const crypto::MessageDigest& digest) const;
  void report_path_suspicion(std::size_t path_index, double weight,
                             obs::Counter* evidence_ctr);
  void on_segment_timeout(std::uint64_t key, bool fail_pending_path);
  void expire_segment(std::uint64_t key);
  /// Closes the segment's "segment"/"segment_retransmit" async span (picked
  /// by its retry count) with the given outcome. No-op while tracing is off.
  void end_segment_span(const PendingSegment& seg, const char* outcome);
  void observe_rtt(std::size_t path_index, SimDuration sample);
  SimDuration backoff_delay(std::size_t failures);
  void mark_path_failed(std::size_t path_index);
  void rebuild_path(std::size_t path_index);
  void schedule_rebuild(std::size_t path_index);
  void expire_kept_pending(std::size_t path_index);
  void resend_pending(std::size_t old_path_index, std::size_t new_path_index);
  void check_predictors();
  void sync_path_info(std::size_t index);
  /// All relay selection funnels through here so the staleness tallies are
  /// mirrored into the registry regardless of which flow (construct,
  /// top-up, rebuild, proactive replace) asked.
  std::optional<std::vector<std::vector<NodeId>>> select_relays(
      std::size_t paths, SimTime now,
      const std::vector<NodeId>& extra_exclude = {});
  std::vector<std::size_t> usable_paths() const;
  const erasure::Codec& session_codec();
  const erasure::Codec& session_codec_for(std::size_t m, std::size_t n);

  AnonRouter& router_;
  const membership::NodeCache& cache_;
  NodeId initiator_;
  NodeId responder_;
  SessionConfig config_;
  Rng rng_;
  MixSelector selector_;

  std::vector<Path> paths_;
  std::vector<PathInfo> path_info_;
  std::vector<PathHealth> path_health_;
  // Backpressure state per path slot (zeros until a relay signals; sized
  // eagerly, no RNG). congested_until_: bulk is withheld from the path
  // until this time. last_backpressure_: suppression cutoff for
  // suspicion-neutral stall accounting.
  std::vector<SimTime> congested_until_;
  std::vector<SimTime> last_backpressure_;
  std::shared_ptr<bool> alive_;  // guards async callbacks

  // Construction state.
  ConstructHandler construct_handler_;
  std::size_t construct_attempts_ = 0;
  std::size_t attempt_outstanding_ = 0;
  bool constructing_ = false;
  bool torn_down_ = false;  // stops scheduled backoff retries
  sim::EventId construct_backoff_event_ = sim::kInvalidEventId;
  Rng backoff_rng_;  // forked from rng_ only in adaptive mode

  // Encode scratch reused across send_message calls: the codec fills it in
  // place, and send_segment_on_path copies what it must keep (payload core
  // and the pending-ack ledger), so nothing references it across events.
  std::vector<erasure::Segment> encode_scratch_;

  // Reverse-path scratch: on_reverse strips every relay layer plus the
  // responder layer in place here, so ack processing allocates nothing
  // once the buffer is warm. parse_reverse_core copies what it keeps
  // before handle_reverse_core can re-enter the send path.
  Bytes reverse_scratch_;

  // In-flight segments keyed by (message_id, segment_index).
  std::unordered_map<std::uint64_t, PendingSegment> pending_segments_;

  // Response reassembly keyed by (message id, response id) — the same
  // request can receive several distinct responses (rendezvous push).
  struct ResponseReassembly {
    std::size_t needed = 0;
    std::size_t total = 0;
    std::size_t original_size = 0;
    std::vector<erasure::Segment> segments;
    bool delivered = false;
  };
  std::unordered_map<std::uint64_t, ResponseReassembly> responses_;

  std::unique_ptr<sim::PeriodicTask> predictor_task_;

  AckHandler ack_handler_;
  ResponseHandler response_handler_;
  PathFailureHandler path_failure_handler_;
  SegmentExpiryHandler segment_expiry_handler_;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t acks_matched_ = 0;
  std::uint64_t segments_expired_ = 0;
  std::uint64_t segments_retransmitted_ = 0;
  std::uint64_t failures_detected_ = 0;
  std::uint64_t proactive_replacements_ = 0;
  std::uint64_t nacks_received_ = 0;
  std::uint64_t mirrored_fallbacks_ = 0;
  std::uint64_t mirrored_biased_ = 0;
  std::uint64_t messages_shed_ = 0;
  std::uint64_t segments_deferred_ = 0;
  std::uint64_t backpressure_rx_ = 0;
  std::uint64_t stalls_suppressed_ = 0;

  // Registry mirrors (resolved from the router's registry). The tallies
  // above stay the per-instance contract the seed tests assert; the series
  // are what sweeps, snapshots, and chaos invariants read.
  obs::Counter* msgs_ctr_;
  obs::Counter* construct_attempts_ctr_;
  obs::Counter* seg_sent_ctr_;
  obs::Counter* seg_retx_ctr_;
  obs::Counter* seg_acked_ctr_;
  obs::Counter* seg_expired_ctr_;
  obs::Counter* path_failures_ctr_;
  obs::Counter* nacks_rx_ctr_;
  obs::Counter* susp_corrupt_ctr_;
  obs::Counter* susp_stall_ctr_;
  obs::Gauge* quarantined_gauge_;
  obs::HdrHistogram* rtt_us_;
  obs::HdrHistogram* rto_us_;
  // Overload series (eager like the corruption counters; 0 in legacy runs).
  obs::Counter* shed_queue_ctr_;
  obs::Counter* shed_headroom_ctr_;
  obs::Counter* shed_congested_ctr_;
  obs::Counter* bp_rx_ctr_;
  obs::Counter* stall_suppressed_ctr_;
  // Null unless staleness_aware (lazy registration keeps default-off
  // registries byte-identical).
  obs::Counter* stale_fallbacks_ctr_ = nullptr;
  obs::Counter* biased_selects_ctr_ = nullptr;
};

}  // namespace p2panon::anon
