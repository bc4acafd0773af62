// Empirical CDF over an explicit sample set. Used to regenerate the paper's
// Figure 1 (lifetime CDF) and for distribution comparisons via the
// Kolmogorov–Smirnov statistic.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace p2panon::metrics {

class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::vector<double> samples);

  void add(double x);
  std::size_t size() const { return samples_.size(); }

  /// F(x) = fraction of samples <= x.
  double at(double x) const;

  /// Inverse CDF (quantile), p in [0, 1].
  double quantile(double p) const;

  /// Max |F_empirical(x) - reference(x)| over the sample points
  /// (one-sample Kolmogorov–Smirnov statistic).
  double ks_distance(const std::function<double(double)>& reference) const;

  /// Max |F_a(x) - F_b(x)| over the union of sample points (two-sample KS).
  static double ks_distance(const EmpiricalCdf& a, const EmpiricalCdf& b);

  /// Evaluation points for plotting: `points` evenly spaced x values over
  /// [min, max] with their CDF values.
  std::vector<std::pair<double, double>> curve(std::size_t points) const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace p2panon::metrics
