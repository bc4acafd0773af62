#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace p2panon::workload {

// Traffic classes an initiator can generate. The numeric values double as
// shed-priority order: lower values are shed first under overload (bulk
// before streaming before interactive; control traffic lives above all of
// these and is never shed — see anon::SegmentPriority).
enum class TrafficClass : std::uint8_t {
  kBulk = 0,
  kInteractive = 1,
  kStreaming = 2,
};

// Shape of the offered-load curve over the measurement window.
enum class LoadShape : std::uint8_t {
  kSteady = 0,      // constant mean arrival rate
  kDiurnal = 1,     // sinusoidal day/night curve around the mean
  kFlashCrowd = 2,  // steady with a multiplied spike inside the flash window
};

inline const char* load_shape_name(LoadShape shape) {
  switch (shape) {
    case LoadShape::kSteady:
      return "steady";
    case LoadShape::kDiurnal:
      return "diurnal";
    case LoadShape::kFlashCrowd:
      return "flash";
  }
  return "unknown";
}

// The flash-crowd window inside a measurement span. This is the single
// definition shared by the workload engine (load spike) and the chaos
// scenario planner (kFlashCrowdCrash crashes victims at window.begin and
// recovers them at window.end), so "when the flash crowd happens" is
// defined exactly once.
struct FlashWindow {
  SimTime begin = 0;
  SimTime end = 0;

  bool contains(SimTime t) const { return t >= begin && t < end; }
};

inline FlashWindow flash_crowd_window(SimTime start, SimDuration span) {
  const SimTime begin = start + span / 4;
  return FlashWindow{begin, begin + span / 4};
}

// Message payload size per class.
constexpr std::size_t kBulkSize = 4096;
constexpr std::size_t kInteractiveSize = 256;
constexpr std::size_t kStreamingSize = 1024;

// Diurnal shape: multiplier = 1 + kDiurnalAmplitude * sin(2*pi * t /
// kDiurnalPeriod).
constexpr SimDuration kDiurnalPeriod = 10 * kMinute;
constexpr double kDiurnalAmplitude = 0.6;

// Flash-crowd shape: arrival rate is multiplied by this inside the flash
// window and 1.0 outside it.
constexpr double kFlashMultiplier = 4.0;

struct WorkloadConfig {
  // Master switch. Off means off: with enabled=false no engine is built,
  // no RNG stream is forked, and the harness sends at its fixed interval.
  bool enabled = false;

  LoadShape shape = LoadShape::kSteady;

  // Mean inter-arrival time between messages at the baseline (multiplier
  // 1.0) load level. Arrivals are exponential, so the offered rate is
  // 1/mean_interarrival scaled by the shape multiplier.
  SimDuration mean_interarrival = 2 * kSecond;

  // Relative mix weights; normalized internally, need not sum to 1.
  double bulk_weight = 0.25;
  double interactive_weight = 0.5;
  double streaming_weight = 0.25;
};

// One generated arrival: wait this long from "now", then send a message of
// this class and size.
struct Arrival {
  SimDuration wait = 0;
  TrafficClass cls = TrafficClass::kInteractive;
  std::size_t size = 0;
};

// Deterministic per-initiator traffic generator. Owns a forked RNG stream
// so that two engines with the same config + seed emit the same arrival
// sequence regardless of what the rest of the simulation does.
class WorkloadEngine {
 public:
  // window_start/window_span anchor the load curve: the diurnal phase is
  // zero at window_start and the flash window is flash_crowd_window(
  // window_start, window_span).
  WorkloadEngine(WorkloadConfig config, SimTime window_start,
                 SimDuration window_span, Rng rng);

  // Draw the next arrival given the current sim time. Thinning is exact
  // for piecewise-constant rates because the multiplier is evaluated at
  // the arrival candidate's own time.
  Arrival next(SimTime now);

  // Instantaneous rate multiplier at time t (1.0 for steady shape).
  double rate_multiplier(SimTime t) const;

  const FlashWindow& flash_window() const { return flash_; }

 private:
  TrafficClass pick_class();
  std::size_t class_size(TrafficClass cls) const;

  WorkloadConfig config_;
  SimTime window_start_;
  SimDuration window_span_;
  FlashWindow flash_;
  double weight_total_;
  Rng rng_;
};

}  // namespace p2panon::workload
