// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library draws from an explicitly seeded
// `Rng` so that experiments are reproducible bit-for-bit. The generator is
// xoshiro256** (Blackman & Vigna), seeded through SplitMix64 per the authors'
// recommendation. It satisfies the C++ UniformRandomBitGenerator concept, so
// it composes with <random> distributions, but the common draws (uniform,
// exponential, Pareto) have dedicated methods to keep results independent of
// standard-library implementation details.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace p2panon {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in (0, 1] — never returns 0, for use inside logs.
  double next_double_open();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (mean = 1/lambda).
  double exponential(double mean);

  /// Classic Pareto: support [scale, inf), CDF 1 - (scale/x)^shape.
  double pareto(double shape, double scale);

  bool bernoulli(double p);

  /// Fills a buffer with random octets.
  void fill(std::uint8_t* out, std::size_t n);

  /// Derives an independent child generator (for per-node streams).
  Rng fork();

  /// Samples `count` distinct indices from [0, n) uniformly (count <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t count);

 private:
  std::uint64_t s_[4];
};

}  // namespace p2panon
