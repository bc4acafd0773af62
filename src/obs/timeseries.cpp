#include "obs/timeseries.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

namespace p2panon::obs {

namespace {

// Quantiles computed per histogram window, ascending. Rendered as
// p<percent> columns (0.5 -> p50).
constexpr double kPercentiles[] = {0.5, 0.9, 0.99};

const char* kind_name(TimeseriesRecorder::Kind kind) {
  switch (kind) {
    case TimeseriesRecorder::Kind::kCounter:
      return "counter";
    case TimeseriesRecorder::Kind::kGauge:
      return "gauge";
    case TimeseriesRecorder::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::string format_double(double v) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << v;
  return out.str();
}

/// Quantile over one window's bucket deltas. The representative is the
/// bucket midpoint (the window's own min/max are unknown, so unlike the
/// cumulative HdrHistogram::percentile there is nothing to clamp against).
std::uint64_t windowed_percentile(const std::vector<std::uint64_t>& deltas,
                                  std::uint64_t total, double p) {
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    seen += deltas[i];
    if (seen >= rank) {
      const std::uint64_t lo = HdrHistogram::bucket_lower_bound(i);
      const std::uint64_t hi = HdrHistogram::bucket_upper_bound(i);
      return lo + (hi - lo) / 2;
    }
  }
  return 0;
}

}  // namespace

std::string percentile_label(double quantile) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", quantile * 100.0);
  return std::string("p") + buf;
}

TimeseriesRecorder::TimeseriesRecorder(const Registry& registry,
                                       TimeseriesConfig config)
    : registry_(registry), config_(std::move(config)) {
  if (config_.window_capacity == 0) config_.window_capacity = 1;
}

TimeseriesRecorder::State& TimeseriesRecorder::state_for(
    const std::string& key, Kind kind) {
  auto& state = series_[{key, static_cast<int>(kind)}];
  state.series.kind = kind;
  return state;
}

void TimeseriesRecorder::push_window(State& state, TimeseriesWindow window) {
  state.series.windows.push_back(std::move(window));
  while (state.series.windows.size() > config_.window_capacity) {
    state.series.windows.pop_front();
    ++state.series.evicted;
  }
}

void TimeseriesRecorder::sample(SimTime now) {
  const SimTime start = last_sample_us_;
  const double window_s =
      now > start ? static_cast<double>(now - start) /
                        static_cast<double>(kSecond)
                  : 0.0;

  registry_.for_each_counter([&](const std::string& name, const Labels& labels,
                                 const Counter& counter) {
    State& state = state_for(series_key(name, labels), Kind::kCounter);
    const double value = static_cast<double>(counter.value());
    TimeseriesWindow window;
    window.start_us = start;
    window.end_us = now;
    window.value = value;
    window.delta = value - state.prev_value;
    window.rate_per_s = window_s > 0.0 ? window.delta / window_s : 0.0;
    state.prev_value = value;
    push_window(state, std::move(window));
  });

  registry_.for_each_gauge([&](const std::string& name, const Labels& labels,
                               const Gauge& gauge) {
    State& state = state_for(series_key(name, labels), Kind::kGauge);
    const double value = static_cast<double>(gauge.value());
    TimeseriesWindow window;
    window.start_us = start;
    window.end_us = now;
    window.value = value;
    window.delta = value - state.prev_value;
    window.rate_per_s = window_s > 0.0 ? window.delta / window_s : 0.0;
    state.prev_value = value;
    push_window(state, std::move(window));
  });

  registry_.for_each_histogram([&](const std::string& name,
                                   const Labels& labels,
                                   const HdrHistogram& histogram) {
    State& state = state_for(series_key(name, labels), Kind::kHistogram);
    if (state.prev_buckets.size() != HdrHistogram::kBucketCount) {
      state.prev_buckets.assign(HdrHistogram::kBucketCount, 0);
    }
    std::vector<std::uint64_t> deltas(HdrHistogram::kBucketCount, 0);
    std::uint64_t in_window = 0;
    for (std::size_t i = 0; i < HdrHistogram::kBucketCount; ++i) {
      const std::uint64_t cur = histogram.bucket_count(i);
      deltas[i] = cur - state.prev_buckets[i];
      in_window += deltas[i];
      state.prev_buckets[i] = cur;
    }
    TimeseriesWindow window;
    window.start_us = start;
    window.end_us = now;
    window.value = static_cast<double>(histogram.count());
    window.delta = static_cast<double>(in_window);
    window.rate_per_s = window_s > 0.0 ? window.delta / window_s : 0.0;
    window.percentiles.reserve(std::size(kPercentiles));
    for (double q : kPercentiles) {
      window.percentiles.push_back(windowed_percentile(deltas, in_window, q));
    }
    push_window(state, std::move(window));
  });

  last_sample_us_ = now;
  ++sample_count_;
}

const TimeseriesRecorder::Series* TimeseriesRecorder::find(
    const std::string& key) const {
  for (const auto& [map_key, state] : series_) {
    if (map_key.first == key) return &state.series;
  }
  return nullptr;
}

std::string TimeseriesRecorder::to_csv() const {
  std::ostringstream out;
  out << "series,kind,start_us,end_us,value,delta,rate_per_s";
  for (double q : kPercentiles) out << ',' << percentile_label(q);
  out << '\n';
  for (const auto& [map_key, state] : series_) {
    for (const TimeseriesWindow& w : state.series.windows) {
      out << '"' << map_key.first << "\"," << kind_name(state.series.kind)
          << ',' << w.start_us << ',' << w.end_us << ','
          << format_double(w.value) << ',' << format_double(w.delta) << ','
          << format_double(w.rate_per_s);
      for (std::size_t i = 0; i < std::size(kPercentiles); ++i) {
        out << ',';
        if (i < w.percentiles.size()) out << w.percentiles[i];
      }
      out << '\n';
    }
  }
  return out.str();
}

bool TimeseriesRecorder::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_csv();
  return static_cast<bool>(out);
}

}  // namespace p2panon::obs
