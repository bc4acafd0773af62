#include "analysis/observations.hpp"

#include "analysis/path_model.hpp"

namespace p2panon::analysis {

const char* to_string(ObservationRegime regime) {
  switch (regime) {
    case ObservationRegime::kAlwaysSplit: return "observation-1(always split)";
    case ObservationRegime::kSplitIfLarge: return "observation-2(split if k large)";
    case ObservationRegime::kNeverSplit: return "observation-3(never split)";
  }
  return "?";
}

ObservationRegime classify_regime(double p, double r) {
  const double pr = p * r;
  if (pr > 4.0 / 3.0) return ObservationRegime::kAlwaysSplit;
  if (pr > 1.0) return ObservationRegime::kSplitIfLarge;
  return ObservationRegime::kNeverSplit;
}

ObservationRegime observe_regime(double p, std::size_t r,
                                 std::size_t k_max) {
  // Sample P at multiples of r and look at the monotonicity pattern.
  bool ever_decreased = false;
  bool ever_increased = false;
  bool increased_after_decrease = false;
  double prev = simera_success_probability(r, static_cast<double>(r), p);
  for (std::size_t k = 2 * r; k <= k_max; k += r) {
    const double current =
        simera_success_probability(k, static_cast<double>(r), p);
    if (current > prev + 1e-12) {
      ever_increased = true;
      if (ever_decreased) increased_after_decrease = true;
    } else if (current < prev - 1e-12) {
      ever_decreased = true;
    }
    prev = current;
  }
  if (!ever_decreased && ever_increased) {
    return ObservationRegime::kAlwaysSplit;
  }
  if (increased_after_decrease) return ObservationRegime::kSplitIfLarge;
  return ObservationRegime::kNeverSplit;
}

std::size_t crossover_k(double p, std::size_t r, std::size_t k_max) {
  double prev = simera_success_probability(r, static_cast<double>(r), p);
  std::size_t dip_seen_at = 0;
  for (std::size_t k = 2 * r; k <= k_max; k += r) {
    const double current =
        simera_success_probability(k, static_cast<double>(r), p);
    if (current < prev - 1e-12 && dip_seen_at == 0) {
      dip_seen_at = k;
    }
    if (dip_seen_at != 0 && current > prev + 1e-12) {
      return k - r;  // last k before P started rising again
    }
    prev = current;
  }
  return 0;
}

std::vector<ParameterChoice> advise_parameters(double node_availability,
                                               std::size_t path_length,
                                               double target_success,
                                               std::size_t max_r,
                                               std::size_t max_k) {
  const double p = path_success_probability(node_availability, path_length);
  std::vector<ParameterChoice> choices;
  for (std::size_t r = 1; r <= max_r; ++r) {
    for (std::size_t k = r; k <= max_k; k += r) {
      const double success =
          simera_success_probability(k, static_cast<double>(r), p);
      if (success >= target_success) {
        choices.push_back(ParameterChoice{
            k, r, success, static_cast<double>(r)});
        break;  // smallest k for this r
      }
    }
  }
  return choices;
}

}  // namespace p2panon::analysis
