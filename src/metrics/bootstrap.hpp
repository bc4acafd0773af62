// Bootstrap confidence intervals.
//
// Durability under Pareto churn has heavy-tailed per-run values; a mean
// over 10 seeds needs an uncertainty estimate or comparisons are
// meaningless. Percentile bootstrap: resample the runs with replacement,
// recompute the mean, take empirical quantiles of the resampled means.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace p2panon::metrics {

struct ConfidenceInterval {
  double mean = 0.0;
  double lo = 0.0;   // lower bound
  double hi = 0.0;   // upper bound
  double level = 0.95;

  std::string to_string(int digits = 1) const;
};

/// Percentile bootstrap CI of the mean. `resamples` ~ 2000 is plenty for
/// 95%. Degenerates gracefully: empty -> zeros, single sample -> point.
ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& samples,
                                     double level = 0.95,
                                     std::size_t resamples = 2000,
                                     std::uint64_t seed = 0x9e3779b9);

}  // namespace p2panon::metrics
