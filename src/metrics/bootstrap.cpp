#include "metrics/bootstrap.hpp"

#include <algorithm>
#include <sstream>

#include "common/strings.hpp"

namespace p2panon::metrics {

std::string ConfidenceInterval::to_string(int digits) const {
  std::ostringstream out;
  out << format_double(mean, digits) << " [" << format_double(lo, digits)
      << ", " << format_double(hi, digits) << "]";
  return out.str();
}

namespace {
double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (double x : v) total += x;
  return total / static_cast<double>(v.size());
}

double resampled_mean(const std::vector<double>& samples, Rng& rng) {
  double total = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    total += samples[rng.next_below(samples.size())];
  }
  return total / static_cast<double>(samples.size());
}
}  // namespace

ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& samples,
                                     double level, std::size_t resamples,
                                     std::uint64_t seed) {
  ConfidenceInterval ci;
  ci.level = level;
  ci.mean = mean_of(samples);
  if (samples.size() < 2) {
    ci.lo = ci.hi = ci.mean;
    return ci;
  }
  Rng rng(seed);
  std::vector<double> means(resamples);
  for (auto& m : means) m = resampled_mean(samples, rng);
  std::sort(means.begin(), means.end());
  const double alpha = (1.0 - level) / 2.0;
  const auto index = [&](double p) {
    const double idx = p * static_cast<double>(means.size() - 1);
    return means[static_cast<std::size_t>(idx)];
  };
  ci.lo = index(alpha);
  ci.hi = index(1.0 - alpha);
  return ci;
}

}  // namespace p2panon::metrics
