#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/logging.hpp"
#include "obs/json.hpp"

namespace p2panon::obs {

namespace {

thread_local CorrelationId t_correlation = 0;

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

CorrelationId current_correlation() noexcept { return t_correlation; }

CorrelationScope::CorrelationScope(CorrelationId corr) noexcept
    : prev_(t_correlation) {
  t_correlation = corr;
}

CorrelationScope::~CorrelationScope() { t_correlation = prev_; }

// ---------------------------------------------------------------------------
// TraceArgs

TraceArgs& TraceArgs::add(std::string_view key, std::uint64_t value) {
  fields_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}

TraceArgs& TraceArgs::add(std::string_view key, std::string_view value) {
  fields_.emplace_back(std::string(key),
                       '"' + json_escape(value) + '"');
  return *this;
}

std::string TraceArgs::render() const {
  std::string out;
  bool first = true;
  for (const auto& [k, v] : fields_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":";
    out += v;
  }
  return out;
}

// ---------------------------------------------------------------------------
// ChromeTraceSink

namespace {

/// Renders one Chrome trace event. Spans use the legacy async phases
/// ('b'/'e'/'n') keyed by cat + id, which Perfetto groups into one track per
/// correlation chain. Sim time goes straight into `ts` (both are µs); the
/// wall clock rides along in args.
std::string render_chrome_event(const TraceRecord& r) {
  const char* ph = "n";
  switch (r.phase) {
    case TraceRecord::Phase::kBegin: ph = "b"; break;
    case TraceRecord::Phase::kEnd: ph = "e"; break;
    case TraceRecord::Phase::kInstant: ph = "n"; break;
  }
  std::ostringstream out;
  out << "{\"ph\":\"" << ph << "\",\"cat\":\"" << json_escape(r.category)
      << "\",\"name\":\"" << json_escape(r.name) << "\",\"id\":\"0x" << std::hex
      << r.corr << std::dec << "\",\"pid\":1,\"tid\":1,\"ts\":" << r.sim_us
      << ",\"args\":{\"wall_ns\":" << r.wall_ns;
  if (!r.args_json.empty()) out << ',' << r.args_json;
  out << "}}";
  return out.str();
}

}  // namespace

void ChromeTraceSink::emit(const TraceRecord& record) {
  std::string rendered = render_chrome_event(record);
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(rendered));
}

std::string ChromeTraceSink::json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out =
      "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"name\":\"process_name\",\"args\":{\"name\":\"p2panon-sim\"}}";
  for (const auto& event : events_) {
    out += ',';
    out += event;
  }
  out += "]}";
  return out;
}

bool ChromeTraceSink::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
}

std::size_t ChromeTraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

// ---------------------------------------------------------------------------
// JsonlTraceSink

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

JsonlTraceSink::JsonlTraceSink(double sample_rate, std::uint64_t seed)
    : sample_rate_(sample_rate < 0.0 ? 0.0
                                     : (sample_rate > 1.0 ? 1.0 : sample_rate)),
      seed_(seed) {}

bool JsonlTraceSink::sampled(CorrelationId corr) const {
  if (corr == 0) return true;  // uncorrelated events are always kept
  if (sample_rate_ >= 1.0) return true;
  if (sample_rate_ <= 0.0) return false;
  // Keep iff the seeded hash lands below the rate threshold; the decision
  // depends only on (corr, seed), so a chain is sampled as a unit and reruns
  // with the same seed keep the same chains.
  const std::uint64_t h = mix64(corr ^ seed_);
  const double unit =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
  return unit < sample_rate_;
}

void JsonlTraceSink::emit(const TraceRecord& r) {
  if (!sampled(r.corr)) return;
  const char* type = "instant";
  switch (r.phase) {
    case TraceRecord::Phase::kBegin: type = "begin"; break;
    case TraceRecord::Phase::kEnd: type = "end"; break;
    case TraceRecord::Phase::kInstant: type = "instant"; break;
  }
  std::ostringstream out;
  out << "{\"type\":\"" << type << "\",\"cat\":\"" << json_escape(r.category)
      << "\",\"name\":\"" << json_escape(r.name) << "\",\"corr\":" << r.corr
      << ",\"sim_us\":" << r.sim_us << ",\"wall_ns\":" << r.wall_ns
      << ",\"args\":{" << r.args_json << "}}";
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.push_back(out.str());
}

bool JsonlTraceSink::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& line : lines_) {
    ok = ok && std::fwrite(line.data(), 1, line.size(), f) == line.size();
    ok = ok && std::fputc('\n', f) != EOF;
  }
  std::fclose(f);
  return ok;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::add_sink(TraceSink* sink) {
  if (sink == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  sinks_.push_back(sink);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::clear_sinks() {
  std::lock_guard<std::mutex> lock(mutex_);
  sinks_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

void Tracer::set_sim_clock(std::uint64_t (*fn)(const void*), const void* ctx) {
  clock_ctx_.store(ctx, std::memory_order_relaxed);
  clock_fn_.store(fn, std::memory_order_relaxed);
}

std::uint64_t Tracer::sim_now_us() const {
  auto* fn = clock_fn_.load(std::memory_order_relaxed);
  return fn != nullptr ? fn(clock_ctx_.load(std::memory_order_relaxed)) : 0;
}

void Tracer::span_begin(std::string_view category, std::string_view name,
                        CorrelationId corr, const TraceArgs& args) {
  if (!enabled()) return;
  dispatch(TraceRecord::Phase::kBegin, category, name, corr, args);
}

void Tracer::span_end(std::string_view category, std::string_view name,
                      CorrelationId corr, const TraceArgs& args) {
  if (!enabled()) return;
  dispatch(TraceRecord::Phase::kEnd, category, name, corr, args);
}

void Tracer::instant(std::string_view category, std::string_view name,
                     CorrelationId corr, const TraceArgs& args) {
  if (!enabled()) return;
  dispatch(TraceRecord::Phase::kInstant, category, name, corr, args);
}

namespace {

std::string trace_log_prefix() {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return {};
  char buf[64];
  std::snprintf(buf, sizeof buf, "[t=%lluus corr=%llx] ",
                static_cast<unsigned long long>(tracer.sim_now_us()),
                static_cast<unsigned long long>(current_correlation()));
  return buf;
}

}  // namespace

void install_log_decorator() { set_log_decorator(&trace_log_prefix); }

void uninstall_log_decorator() { set_log_decorator(nullptr); }

void Tracer::dispatch(TraceRecord::Phase phase, std::string_view category,
                      std::string_view name, CorrelationId corr,
                      const TraceArgs& args) {
  TraceRecord record;
  record.phase = phase;
  record.category = std::string(category);
  record.name = std::string(name);
  record.corr = corr;
  auto* fn = clock_fn_.load(std::memory_order_relaxed);
  record.sim_us =
      fn != nullptr ? fn(clock_ctx_.load(std::memory_order_relaxed)) : 0;
  record.wall_ns = wall_now_ns();
  record.args_json = args.render();
  std::lock_guard<std::mutex> lock(mutex_);
  for (TraceSink* sink : sinks_) sink->emit(record);
}

}  // namespace p2panon::obs
