#include "metrics/cdf.hpp"

#include <algorithm>

namespace p2panon::metrics {

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

}  // namespace p2panon::metrics
