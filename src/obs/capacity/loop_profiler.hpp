// Event-loop profiler: wall-clock self-time and dispatch counts per
// event type, attributed at the single point every simulated action
// funnels through — Simulator::step().
//
// Every scheduled event carries a small EventTypeId (interned once per
// subsystem at component-construction time via event_type("net.deliver")).
// The profiler counts every dispatch, but only times one in `sample_stride`
// of them with a steady_clock pair, scaling the sampled self-time back up
// at report time. That keeps the hot loop at ~two increments per untimed
// event, and the profiler measures its own cost: the clock-pair price is
// calibrated at construction and reported as an overhead estimate so the
// scale gate can hold the probe under its <3% budget.
//
// The profiler reads wall clocks and writes only its own slots — it never
// schedules events, touches RNG streams, or alters callbacks — so an
// attached profiler leaves run fingerprints byte-identical (asserted by
// OffMeansOffTest). Default is detached: Simulator holds a null pointer
// and pays one branch per event.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace p2panon::obs::capacity {

/// Index into the process-wide event-type table; 0 = "untyped".
using EventTypeId = std::uint16_t;
constexpr EventTypeId kUntypedEvent = 0;
constexpr std::size_t kMaxEventTypes = 128;

/// Interns `name` and returns its id; repeated calls return the same id.
/// Falls back to kUntypedEvent when the table is full. Cheap enough for
/// component constructors; hot paths should cache the result.
EventTypeId event_type(const char* name);

/// Name for an id ("untyped" for 0, "" for never-interned ids).
const char* event_type_name(EventTypeId id);

/// Interned types so far, the untyped slot included.
std::size_t event_type_count();

class LoopProfiler {
 public:
  struct Config {
    /// Time one in this many dispatches (>= 1); the rest only count.
    std::uint32_t sample_stride = 16;
  };

  explicit LoopProfiler(Config config);
  LoopProfiler(const LoopProfiler&) = delete;
  LoopProfiler& operator=(const LoopProfiler&) = delete;

  /// Runs `fn` on behalf of the event loop, attributing the dispatch (and,
  /// on sampled ticks, its wall-clock self-time) to `type`.
  void dispatch(EventTypeId type, const std::function<void()>& fn);

  std::uint32_t sample_stride() const { return stride_; }

  struct TypeReport {
    std::string name;
    std::uint64_t dispatches = 0;
    std::uint64_t samples = 0;
    std::uint64_t sampled_ns = 0;
    double est_total_ns = 0;  // sampled_ns scaled by dispatches/samples
    double share = 0;         // est_total_ns / sum over all types
  };

  struct Report {
    std::uint64_t dispatches_total = 0;
    std::uint64_t samples_total = 0;
    std::uint64_t sampled_ns_total = 0;
    double est_busy_ns_total = 0;    // scaled self-time over all types
    double clock_pair_ns = 0;        // calibrated cost of one timed sample
    double est_overhead_ns = 0;      // samples_total * clock_pair_ns
    std::uint32_t sample_stride = 0;
    std::vector<TypeReport> types;   // est_total_ns descending
  };

  /// Snapshot, types sorted by estimated self-time (heaviest first).
  Report report() const;

  /// Renders report() as one JSON object (deterministic field order).
  std::string report_json() const;

  /// Zeroes every slot (e.g. after warmup, before the measured window).
  void reset();

 private:
  struct Slot {
    std::uint64_t dispatches = 0;
    std::uint64_t samples = 0;
    std::uint64_t sampled_ns = 0;
  };

  std::uint32_t stride_;
  std::uint32_t tick_ = 0;
  double clock_pair_ns_;
  Slot slots_[kMaxEventTypes];
};

}  // namespace p2panon::obs::capacity
