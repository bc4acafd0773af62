#include "metrics/cdf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p2panon::metrics {

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : samples_(std::move(samples)), sorted_(false) {}

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double EmpiricalCdf::quantile(double p) const {
  if (samples_.empty()) {
    throw std::logic_error("EmpiricalCdf::quantile on empty CDF");
  }
  ensure_sorted();
  p = std::clamp(p, 0.0, 1.0);
  const double idx = p * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double EmpiricalCdf::ks_distance(
    const std::function<double(double)>& reference) const {
  ensure_sorted();
  double max_gap = 0.0;
  const double n = static_cast<double>(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const double ref = reference(samples_[i]);
    const double above = static_cast<double>(i + 1) / n - ref;
    const double below = ref - static_cast<double>(i) / n;
    max_gap = std::max({max_gap, above, below});
  }
  return max_gap;
}

double EmpiricalCdf::ks_distance(const EmpiricalCdf& a,
                                 const EmpiricalCdf& b) {
  a.ensure_sorted();
  b.ensure_sorted();
  double max_gap = 0.0;
  for (double x : a.samples_) max_gap = std::max(max_gap, std::fabs(a.at(x) - b.at(x)));
  for (double x : b.samples_) max_gap = std::max(max_gap, std::fabs(a.at(x) - b.at(x)));
  return max_gap;
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(
    std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points < 2) return out;
  ensure_sorted();
  const double lo = samples_.front();
  const double hi = samples_.back();
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(x, at(x));
  }
  return out;
}

}  // namespace p2panon::metrics
