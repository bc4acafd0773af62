// Sim-time-aligned windowed sampling over a metrics Registry.
//
// The Registry (obs/metrics) answers "what happened since the run started";
// this layer answers "what happened in the last N seconds of sim time" — the
// shape resilience claims actually live on: drop-rate spikes during a churn
// storm, per-window RTT percentiles while a partition heals, queue depth
// over a flash crowd.
//
// A TimeseriesRecorder snapshots every series in a registry each time
// `sample(now)` is called, closing one Window per series:
//   counters   — cumulative value, in-window delta, and delta/seconds rate
//   gauges     — point-in-time level plus delta/rate of change
//   histograms — in-window recording count/rate plus percentiles computed
//                from BUCKET DELTAS between snapshots, i.e. the p50/p90/p99
//                of only the values recorded inside the window
// In a harness run the caller is the Environment's sampler
// (EnvironmentConfig::sampled): the last step of each 30 s tick, after the
// health scoreboard and gauge exports of the same tick.
//
// Windows live in a bounded ring per series (oldest evicted, eviction
// counted), so a recorder attached to a week-long run stays O(capacity).
// Export is CSV (one row per window, series sorted) or JSONL — both
// deterministic byte-for-byte for a given run.
//
// Default OFF: nothing in the simulator or harness constructs a recorder
// unless a config explicitly wires one in, and sampling never mutates the
// registry, so an enabled recorder perturbs no counter a fingerprint reads.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace p2panon::obs {

struct TimeseriesConfig {
  /// Max windows retained per series; older windows are evicted (and
  /// counted) once a series exceeds this.
  std::size_t window_capacity = 512;
  /// Quantiles computed per histogram window, ascending. Rendered as
  /// p<percent> columns (0.5 -> p50, 0.999 -> p99.9).
  std::vector<double> percentiles = {0.5, 0.9, 0.99};
};

/// One closed sampling window for one series.
struct TimeseriesWindow {
  SimTime start_us = 0;
  SimTime end_us = 0;
  double value = 0.0;       // cumulative (counter/histogram-count) or level
  double delta = 0.0;       // change across the window
  double rate_per_s = 0.0;  // delta / window length (0 for empty windows)
  /// Histogram series only: one value per configured quantile, computed
  /// from this window's bucket deltas. Empty for counters/gauges.
  std::vector<std::uint64_t> percentiles;
};

class TimeseriesRecorder {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Kind kind = Kind::kCounter;
    std::deque<TimeseriesWindow> windows;
    std::uint64_t evicted = 0;  // windows dropped to honour window_capacity
  };

  /// The registry must outlive the recorder. Sampling only reads it.
  explicit TimeseriesRecorder(const Registry& registry,
                              TimeseriesConfig config = {});

  /// Closes the window [previous sample time, now] for every series
  /// currently registered. The first call closes [0, now]; series that
  /// appear later get their first window when first seen (prior value 0).
  /// `now` must be monotonically non-decreasing across calls.
  void sample(SimTime now);

  std::size_t sample_count() const { return sample_count_; }
  SimTime last_sample_us() const { return last_sample_us_; }
  std::size_t series_count() const { return series_.size(); }

  /// Series state for one `series_key(name, labels)`, nullptr if that key
  /// has never been sampled. Test/inspection hook.
  const Series* find(const std::string& key) const;

  /// CSV: header then one row per (series, window), series sorted by key.
  /// Percentile cells are blank for non-histogram series.
  std::string to_csv() const;
  /// JSONL: one object per (series, window) in the same order as the CSV.
  std::string to_jsonl() const;
  bool write_csv(const std::string& path) const;
  bool write_jsonl(const std::string& path) const;

  const TimeseriesConfig& config() const { return config_; }

 private:
  struct State {
    Series series;
    double prev_value = 0.0;
    std::vector<std::uint64_t> prev_buckets;  // histograms only
  };

  void push_window(State& state, TimeseriesWindow window);
  State& state_for(const std::string& key, Kind kind);

  const Registry& registry_;
  TimeseriesConfig config_;
  // Keyed by (series key, kind): a counter and a gauge may legally share a
  // name, and sorted iteration keeps every export deterministic.
  std::map<std::pair<std::string, int>, State> series_;
  SimTime last_sample_us_ = 0;
  std::size_t sample_count_ = 0;
};

/// "p50", "p99.9", ... — the column label for a quantile in [0, 1].
std::string percentile_label(double quantile);

}  // namespace p2panon::obs
