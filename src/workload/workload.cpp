#include "workload/workload.hpp"

#include <algorithm>

namespace p2panon::workload {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

WorkloadEngine::WorkloadEngine(WorkloadConfig config, SimTime window_start,
                               SimDuration window_span, Rng rng)
    : config_(config),
      window_start_(window_start),
      window_span_(window_span),
      flash_(flash_crowd_window(window_start, window_span)),
      weight_total_(config.bulk_weight + config.interactive_weight +
                    config.streaming_weight),
      rng_(rng) {
  if (weight_total_ <= 0.0) {
    // Degenerate mix: fall back to all-interactive so next() stays total.
    config_.interactive_weight = 1.0;
    weight_total_ = 1.0;
  }
}

double WorkloadEngine::rate_multiplier(SimTime t) const {
  switch (config_.shape) {
    case LoadShape::kSteady:
      return 1.0;
    case LoadShape::kDiurnal: {
      const double phase =
          2.0 * kPi *
          (static_cast<double>(t - window_start_) /
           static_cast<double>(kDiurnalPeriod));
      const double m = 1.0 + kDiurnalAmplitude * std::sin(phase);
      return std::max(m, 1e-6);
    }
    case LoadShape::kFlashCrowd:
      return flash_.contains(t) ? kFlashMultiplier : 1.0;
  }
  return 1.0;
}

TrafficClass WorkloadEngine::pick_class() {
  const double u = rng_.next_double() * weight_total_;
  if (u < config_.bulk_weight) return TrafficClass::kBulk;
  if (u < config_.bulk_weight + config_.interactive_weight) {
    return TrafficClass::kInteractive;
  }
  return TrafficClass::kStreaming;
}

std::size_t WorkloadEngine::class_size(TrafficClass cls) const {
  switch (cls) {
    case TrafficClass::kBulk:
      return kBulkSize;
    case TrafficClass::kInteractive:
      return kInteractiveSize;
    case TrafficClass::kStreaming:
      return kStreamingSize;
  }
  return kInteractiveSize;
}

Arrival WorkloadEngine::next(SimTime now) {
  // Non-homogeneous Poisson arrivals via Lewis–Shedler thinning: draw
  // candidates at the peak rate and accept each with probability
  // multiplier(candidate)/peak. Exact for our piecewise / sinusoidal
  // multipliers and fully deterministic given the engine's RNG stream.
  double peak = 1.0;
  switch (config_.shape) {
    case LoadShape::kSteady:
      break;
    case LoadShape::kDiurnal:
      peak = 1.0 + kDiurnalAmplitude;
      break;
    case LoadShape::kFlashCrowd:
      peak = kFlashMultiplier;
      break;
  }
  const double mean_at_peak =
      static_cast<double>(config_.mean_interarrival) / peak;

  SimTime candidate = now;
  for (int guard = 0; guard < 4096; ++guard) {
    const double dt = rng_.exponential(mean_at_peak);
    candidate += std::max<SimDuration>(1, static_cast<SimDuration>(dt));
    const double accept = rate_multiplier(candidate) / peak;
    if (rng_.next_double() < accept) break;
  }

  Arrival arrival;
  arrival.wait = candidate - now;
  arrival.cls = pick_class();
  arrival.size = class_size(arrival.cls);
  return arrival;
}

}  // namespace p2panon::workload
