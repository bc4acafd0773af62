#include "common/rng.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace p2panon {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("next_below: bound must be > 0");
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t t = (0 - bound) % bound;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double_open() {
  return (static_cast<double>(next_u64() >> 11) + 1.0) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("exponential: mean must be > 0");
  return -mean * std::log(next_double_open());
}

double Rng::pareto(double shape, double scale) {
  if (shape <= 0 || scale <= 0) {
    throw std::invalid_argument("pareto: shape and scale must be > 0");
  }
  // Inverse-CDF: x = scale * U^{-1/shape}, U in (0, 1].
  return scale * std::pow(next_double_open(), -1.0 / shape);
}

bool Rng::bernoulli(double p) {
  return next_double() < p;
}

void Rng::fill(std::uint8_t* out, std::size_t n) {
  std::size_t i = 0;
  while (i + 8 <= n) {
    const std::uint64_t v = next_u64();
    for (int b = 0; b < 8; ++b) {
      out[i + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(v >> (8 * b));
    }
    i += 8;
  }
  if (i < n) {
    const std::uint64_t v = next_u64();
    for (int b = 0; i < n; ++i, ++b) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
}

Rng Rng::fork() {
  return Rng(next_u64());
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t count) {
  if (count > n) {
    throw std::invalid_argument("sample_without_replacement: count > n");
  }
  // Dense Fisher–Yates when we sample a large fraction; Floyd's algorithm
  // otherwise to avoid materializing [0, n).
  if (count * 4 >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(next_below(n - i));
      std::swap(all[i], all[j]);
    }
    all.resize(count);
    return all;
  }
  std::unordered_set<std::size_t> chosen;
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t j = n - count; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(next_below(j + 1));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace p2panon
