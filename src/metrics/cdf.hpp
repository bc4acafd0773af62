// Empirical CDF over an explicit sample set. Used to regenerate the paper's
// Figure 1 (lifetime CDF) and to compare it with a model CDF via the
// Kolmogorov–Smirnov statistic.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace p2panon::metrics {

class EmpiricalCdf {
 public:
  void add(double x);
  std::size_t size() const { return samples_.size(); }

  /// F(x) = fraction of samples <= x.
  double at(double x) const;

  /// Max |F_empirical(x) - reference(x)| over the sample points
  /// (one-sample Kolmogorov–Smirnov statistic).
  double ks_distance(const std::function<double(double)>& reference) const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace p2panon::metrics
