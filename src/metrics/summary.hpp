// Streaming summary statistics (count / mean / min / max) with a running
// mean, plus a ratio counter for success rates.
#pragma once

#include <cstdint>
#include <limits>

namespace p2panon::metrics {

class Summary {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Counts successes over trials; rate() in [0, 1].
class Ratio {
 public:
  void record(bool success) {
    ++trials_;
    if (success) ++successes_;
  }
  void merge(const Ratio& other) {
    trials_ += other.trials_;
    successes_ += other.successes_;
  }
  std::uint64_t trials() const { return trials_; }
  std::uint64_t successes() const { return successes_; }
  double rate() const {
    return trials_ ? static_cast<double>(successes_) / static_cast<double>(trials_) : 0.0;
  }
  double percent() const { return 100.0 * rate(); }

 private:
  std::uint64_t trials_ = 0;
  std::uint64_t successes_ = 0;
};

}  // namespace p2panon::metrics
