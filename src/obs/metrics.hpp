// Runtime metrics registry: counters, gauges, and HDR-style histograms keyed
// by `name{label=value,...}`.
//
// Design goals, in order:
//   1. Hot-path cheap. A component looks its series up ONCE (at construction)
//      and keeps the returned handle; increments are then a single relaxed
//      atomic add with no hashing, locking, or allocation.
//   2. Thread-safe. Chaos and durability sweeps run whole experiments on
//      parallel_for workers, so handles must tolerate concurrent writers.
//      Registration takes a mutex; recording never does.
//   3. Exportable. `snapshot_json()` renders the whole registry as one JSON
//      document (tests and benches write it via the --json flag).
//
// A registry is usually per-Environment (per-run isolation keeps fingerprints
// deterministic under parallel sweeps); `Registry::global()` exists as the
// fallback for directly constructed components.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace p2panon::obs {

using Labels = std::map<std::string, std::string>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, events/sec, ...). Signed so deltas work.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// HDR-style log-linear histogram over non-negative 64-bit values.
///
/// Values below 64 get exact buckets; above that, each power of two is split
/// into 32 linear sub-buckets, bounding relative error at ~3% while covering
/// the full uint64 range in 1888 fixed buckets. record() is lock-free
/// (relaxed atomic adds); percentile() is approximate but deterministic, and
/// its result is clamped to the observed [min, max].
class HdrHistogram {
 public:
  static constexpr std::size_t kExact = 64;        // values 0..63, one each
  static constexpr std::size_t kSubBuckets = 32;   // per power of two
  static constexpr std::size_t kBucketCount =
      kExact + (63 - 6) * kSubBuckets;             // exponents 6..62

  void record(std::uint64_t value);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const;  // 0 when empty
  std::uint64_t max() const;  // 0 when empty
  double mean() const;

  /// Value at quantile p in [0, 1]: the representative (bucket midpoint,
  /// clamped to [min, max]) of the first bucket whose cumulative count
  /// reaches ceil(p * count). Returns 0 when empty.
  std::uint64_t percentile(double p) const;

  static std::size_t bucket_index(std::uint64_t value);
  static std::uint64_t bucket_lower_bound(std::size_t index);
  static std::uint64_t bucket_upper_bound(std::size_t index);  // inclusive

  /// Raw count of one bucket. The windowed sampler (obs/timeseries) diffs
  /// successive snapshots of the bucket array to compute percentiles over a
  /// single window rather than the whole run.
  std::uint64_t bucket_count(std::size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Owns every series. Lookup registers on first use and returns a pointer
/// that stays valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* counter(std::string name, Labels labels = {});
  Gauge* gauge(std::string name, Labels labels = {});
  HdrHistogram* histogram(std::string name, Labels labels = {});

  /// Current value of a counter series, 0 if never registered. Convenience
  /// for harness invariant checks that read rather than record.
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels = {}) const;
  std::int64_t gauge_value(const std::string& name,
                           const Labels& labels = {}) const;

  /// Sum over every counter series with this name, regardless of labels.
  std::uint64_t counter_total(const std::string& name) const;

  /// One JSON document: {"counters": [...], "gauges": [...],
  /// "histograms": [...]}, series sorted by key for deterministic output.
  std::string snapshot_json() const;

  /// Visits every series of one kind in deterministic (sorted-key) order,
  /// holding the registration lock for the duration. The series references
  /// stay valid for the registry's lifetime, so samplers may cache pointers
  /// — but the callbacks themselves must not register new series (deadlock).
  void for_each_counter(
      const std::function<void(const std::string& name, const Labels& labels,
                               const Counter& counter)>& fn) const;
  void for_each_gauge(
      const std::function<void(const std::string& name, const Labels& labels,
                               const Gauge& gauge)>& fn) const;
  void for_each_histogram(
      const std::function<void(const std::string& name, const Labels& labels,
                               const HdrHistogram& histogram)>& fn) const;

  /// Process-wide fallback registry for components constructed without one.
  static Registry& global();

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& other) const {
      if (name != other.name) return name < other.name;
      return labels < other.labels;
    }
  };

  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<HdrHistogram>> histograms_;
};

/// Renders `name{k1=v1,k2=v2}` (or just `name` with no labels) — the
/// canonical series key used in snapshots and docs.
std::string series_key(const std::string& name, const Labels& labels);

}  // namespace p2panon::obs
