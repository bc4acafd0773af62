// Sim-time span tracer.
//
// Spans and instant events are stamped with BOTH clocks — the deterministic
// sim clock (microseconds, supplied by whatever Simulator is attached) and
// the host wall clock (nanoseconds) — and carry a correlation id that links
// every event caused by one message or session action.
//
// Correlation ids propagate through the event queue, not through protocol
// bytes: `current_correlation()` is a thread-local that EventQueue captures
// at schedule() time and Simulator restores (via CorrelationScope) around
// each callback. A send, the delivery it causes, the timer that delivery
// arms, and the retransmit that timer fires therefore all share the id of
// the original `send_message`, with zero change to wire formats or RNG use.
//
// Two sinks:
//   * ChromeTraceSink — Chrome trace-event JSON (legacy async phases
//     'b'/'e'/'n', async id = correlation id) that opens directly in
//     Perfetto / chrome://tracing.
//   * JsonlTraceSink — one JSON object per line, with deterministic
//     per-correlation-chain sampling (a chain is kept or dropped whole,
//     decided by a seeded hash of its correlation id).
//
// The tracer starts with NO sink installed; in that state `enabled()` is a
// single relaxed atomic load and every span call returns immediately, so the
// instrumented hot paths cost nothing in normal runs ("off means off").
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace p2panon::obs {

using CorrelationId = std::uint64_t;

/// The correlation id active on this thread (0 = none).
CorrelationId current_correlation() noexcept;

/// RAII: sets the thread's correlation id for the enclosed scope and
/// restores the previous one on exit. Passing 0 clears it.
class CorrelationScope {
 public:
  explicit CorrelationScope(CorrelationId corr) noexcept;
  ~CorrelationScope();
  CorrelationScope(const CorrelationScope&) = delete;
  CorrelationScope& operator=(const CorrelationScope&) = delete;

 private:
  CorrelationId prev_;
};

/// Small inline key/value bag rendered into the event's "args" object.
/// Build it only behind an `enabled()` check — construction allocates.
class TraceArgs {
 public:
  TraceArgs& add(std::string_view key, std::uint64_t value);
  TraceArgs& add(std::string_view key, std::string_view value);
  bool empty() const { return fields_.empty(); }
  /// Renders `"k":v,...` (no surrounding braces).
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct TraceRecord {
  enum class Phase { kBegin, kEnd, kInstant };
  Phase phase = Phase::kInstant;
  std::string category;
  std::string name;
  CorrelationId corr = 0;
  std::uint64_t sim_us = 0;
  std::uint64_t wall_ns = 0;
  std::string args_json;  // rendered `"k":v,...` without braces, may be empty
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceRecord& record) = 0;
};

/// Accumulates Chrome trace-event JSON in memory. `json()` produces the full
/// `{"traceEvents":[...]}` document; `write_file()` saves it.
class ChromeTraceSink : public TraceSink {
 public:
  void emit(const TraceRecord& record) override;
  std::string json() const;
  bool write_file(const std::string& path) const;
  std::size_t event_count() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> events_;
};

/// JSONL causal log with deterministic sampling: a record is kept iff its
/// whole correlation chain is kept, decided by hashing corr with the seed.
/// corr == 0 (uncorrelated events) is always kept.
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(double sample_rate = 1.0, std::uint64_t seed = 0);
  void emit(const TraceRecord& record) override;
  const std::vector<std::string>& lines() const { return lines_; }
  bool write_file(const std::string& path) const;
  bool sampled(CorrelationId corr) const;

 private:
  double sample_rate_;
  std::uint64_t seed_;
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

/// Process-wide tracer. Components call the span/instant methods directly;
/// with no sink installed each call is one relaxed load and a branch.
class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Installs a sink (not owned; caller keeps it alive until clear).
  void add_sink(TraceSink* sink);
  void clear_sinks();

  /// Attaches the sim clock: `fn(ctx)` must return current sim time in µs.
  /// Pass nullptr to detach (events then carry sim_us = 0). The Environment
  /// attaches its Simulator for the duration of a run.
  void set_sim_clock(std::uint64_t (*fn)(const void*), const void* ctx);

  /// Current sim time per the attached clock, 0 when none is attached.
  std::uint64_t sim_now_us() const;

  void span_begin(std::string_view category, std::string_view name,
                  CorrelationId corr, const TraceArgs& args = {});
  void span_end(std::string_view category, std::string_view name,
                CorrelationId corr, const TraceArgs& args = {});
  void instant(std::string_view category, std::string_view name,
               CorrelationId corr, const TraceArgs& args = {});

 private:
  Tracer() = default;
  void dispatch(TraceRecord::Phase phase, std::string_view category,
                std::string_view name, CorrelationId corr,
                const TraceArgs& args);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceSink*> sinks_;
  std::atomic<std::uint64_t (*)(const void*)> clock_fn_{nullptr};
  std::atomic<const void*> clock_ctx_{nullptr};
};

/// splitmix64 — the sampling hash, exposed so tests can predict decisions.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// Routes common/logging through the tracer: installs a decorator that
/// prefixes every log line with `[t=<sim_us>us corr=<id>]` while the tracer
/// is enabled. While tracing is off the decorator returns "" and log output
/// is byte-identical to the undecorated logger.
void install_log_decorator();
void uninstall_log_decorator();

}  // namespace p2panon::obs
