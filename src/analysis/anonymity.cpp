#include "analysis/anonymity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p2panon::analysis {

namespace {
/// Sweep grids legitimately hit both endpoints (f = 0: no attackers,
/// f = 1: everyone compromised), so the full closed interval is valid;
/// only genuinely meaningless fractions are rejected.
void check_f(double f) {
  if (!(f >= 0.0 && f <= 1.0)) {
    throw std::invalid_argument("fraction of attackers must be in [0, 1]");
  }
}

double clamp01(double p) { return std::clamp(p, 0.0, 1.0); }
}  // namespace

double first_relay_compromised_weight(double f, std::size_t L) {
  check_f(f);
  if (L == 0) return 0.0;  // no relays, no first relay to compromise
  double total = 0.0;
  for (std::size_t i = 1; i <= L; ++i) {
    total += (static_cast<double>(i) / static_cast<double>(L)) *
             std::pow(f, static_cast<double>(i)) *
             std::pow(1.0 - f, static_cast<double>(L - i));
  }
  return clamp01(total);
}

double initiator_identification_probability(std::size_t N, double f,
                                            std::size_t L) {
  check_f(f);
  if (N == 0 || L == 0) return 0.0;  // no network / no path: nothing to guess
  if (f >= 1.0) return 1.0;          // every relay is the attacker's
  const double s = first_relay_compromised_weight(f, L);
  // The Case-2 pool is at least the initiator itself; without the floor,
  // N(1-f) < 1 (e.g. N=2, f=0.9) would push the probability above 1.
  const double honest_pool =
      std::max(1.0, static_cast<double>(N) * (1.0 - f));
  return clamp01(s +
                 (1.0 / honest_pool) * (1.0 - 1.0 / static_cast<double>(L)) * s);
}

double multipath_first_relay_exposure(double f, std::size_t k) {
  check_f(f);
  if (k == 0) return 0.0;  // no paths, no first relays exposed
  return clamp01(1.0 - std::pow(1.0 - f, static_cast<double>(k)));
}

std::size_t honest_anonymity_set(std::size_t N, double f) {
  check_f(f);
  if (N == 0 || f >= 1.0) return 0;
  const double honest = static_cast<double>(N) * (1.0 - f);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(honest + 0.5));
}

double uniform_entropy_bits(std::size_t set_size) {
  if (set_size <= 1) return 0.0;
  return std::log2(static_cast<double>(set_size));
}

}  // namespace p2panon::analysis
