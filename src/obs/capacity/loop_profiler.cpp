#include "obs/capacity/loop_profiler.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "obs/json.hpp"

namespace p2panon::obs::capacity {

namespace {

using Clock = std::chrono::steady_clock;

struct TypeTable {
  std::mutex mutex;
  std::vector<std::string> names{"untyped"};
};

TypeTable& type_table() {
  static TypeTable table;
  return table;
}

std::uint64_t elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Mean cost of one timed sample (two steady_clock reads plus the slot
/// update), measured over a fixed burst so the estimate is cheap and
/// stable. Re-run per profiler: frequency scaling between runs is real
/// overhead and should be re-measured, not cached.
double calibrate_clock_pair_ns() {
  constexpr int kBurst = 4096;
  volatile std::uint64_t sink = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kBurst; ++i) {
    const auto t0 = Clock::now();
    const auto t1 = Clock::now();
    sink = sink + elapsed_ns(t0, t1);
  }
  const auto end = Clock::now();
  return static_cast<double>(elapsed_ns(start, end)) / kBurst;
}

}  // namespace

EventTypeId event_type(const char* name) {
  if (name == nullptr || name[0] == '\0') return kUntypedEvent;
  TypeTable& table = type_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    if (table.names[i] == name) return static_cast<EventTypeId>(i);
  }
  if (table.names.size() >= kMaxEventTypes) return kUntypedEvent;
  table.names.emplace_back(name);
  return static_cast<EventTypeId>(table.names.size() - 1);
}

const char* event_type_name(EventTypeId id) {
  TypeTable& table = type_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  if (id >= table.names.size()) return "";
  return table.names[id].c_str();
}

std::size_t event_type_count() {
  TypeTable& table = type_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  return table.names.size();
}

LoopProfiler::LoopProfiler(Config config)
    : stride_(config.sample_stride > 0 ? config.sample_stride : 1),
      clock_pair_ns_(calibrate_clock_pair_ns()) {}

void LoopProfiler::dispatch(EventTypeId type,
                            const std::function<void()>& fn) {
  Slot& slot = slots_[type < kMaxEventTypes ? type : kUntypedEvent];
  ++slot.dispatches;
  if (++tick_ >= stride_) {
    tick_ = 0;
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    ++slot.samples;
    slot.sampled_ns += elapsed_ns(t0, t1);
  } else {
    fn();
  }
}

LoopProfiler::Report LoopProfiler::report() const {
  Report out;
  out.clock_pair_ns = clock_pair_ns_;
  out.sample_stride = stride_;
  for (std::size_t i = 0; i < kMaxEventTypes; ++i) {
    const Slot& slot = slots_[i];
    if (slot.dispatches == 0) continue;
    TypeReport type;
    type.name = event_type_name(static_cast<EventTypeId>(i));
    if (type.name.empty()) type.name = "untyped";
    type.dispatches = slot.dispatches;
    type.samples = slot.samples;
    type.sampled_ns = slot.sampled_ns;
    if (slot.samples > 0) {
      type.est_total_ns = static_cast<double>(slot.sampled_ns) *
                          static_cast<double>(slot.dispatches) /
                          static_cast<double>(slot.samples);
    }
    out.dispatches_total += slot.dispatches;
    out.samples_total += slot.samples;
    out.sampled_ns_total += slot.sampled_ns;
    out.est_busy_ns_total += type.est_total_ns;
    out.types.push_back(std::move(type));
  }
  out.est_overhead_ns =
      static_cast<double>(out.samples_total) * clock_pair_ns_;
  for (TypeReport& type : out.types) {
    type.share = out.est_busy_ns_total > 0
                     ? type.est_total_ns / out.est_busy_ns_total
                     : 0.0;
  }
  std::sort(out.types.begin(), out.types.end(),
            [](const TypeReport& a, const TypeReport& b) {
              if (a.est_total_ns != b.est_total_ns) {
                return a.est_total_ns > b.est_total_ns;
              }
              return a.name < b.name;
            });
  return out;
}

std::string LoopProfiler::report_json() const {
  const Report rep = report();
  std::string out = "{\"dispatches\":" + std::to_string(rep.dispatches_total);
  out += ",\"samples\":" + std::to_string(rep.samples_total);
  out += ",\"sample_stride\":" + std::to_string(rep.sample_stride);
  out += ",\"sampled_ns\":" + std::to_string(rep.sampled_ns_total);
  out += ",\"est_busy_ns\":" + std::to_string(rep.est_busy_ns_total);
  out += ",\"clock_pair_ns\":" + std::to_string(rep.clock_pair_ns);
  out += ",\"est_overhead_ns\":" + std::to_string(rep.est_overhead_ns);
  out += ",\"types\":[";
  bool first = true;
  for (const TypeReport& type : rep.types) {
    if (!first) out += ',';
    first = false;
    out += "{\"type\":\"" + json_escape(type.name) + '"';
    out += ",\"dispatches\":" + std::to_string(type.dispatches);
    out += ",\"samples\":" + std::to_string(type.samples);
    out += ",\"sampled_ns\":" + std::to_string(type.sampled_ns);
    out += ",\"est_total_ns\":" + std::to_string(type.est_total_ns);
    out += ",\"share\":" + std::to_string(type.share);
    out += '}';
  }
  out += "]}";
  return out;
}

void LoopProfiler::reset() {
  for (Slot& slot : slots_) slot = Slot{};
  tick_ = 0;
}

}  // namespace p2panon::obs::capacity
