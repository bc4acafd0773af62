#include "metrics/summary.hpp"

namespace p2panon::metrics {

void Summary::add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

}  // namespace p2panon::metrics
