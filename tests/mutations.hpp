// Mutants of a valid wire message for the parser mutation tests: every
// single-byte flip with masks 0x01, 0x80 and 0xff, every truncation, and
// kSplices seeded multi-byte splices. A splice overwrites 2-16 bytes at a
// random offset with random bytes or with a slice of one of `donors`
// (other valid messages); half of the donor splices also take the donor's
// tail, which changes the length.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace p2panon {

inline std::vector<Bytes> mutations_of(const Bytes& msg,
                                       const std::vector<Bytes>& donors,
                                       Rng& rng) {
  constexpr int kSplices = 48;
  std::vector<Bytes> out;
  for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
    for (std::size_t i = 0; i < msg.size(); ++i) {
      Bytes flipped = msg;
      flipped[i] ^= mask;
      out.push_back(std::move(flipped));
    }
  }
  for (std::size_t len = 0; len < msg.size(); ++len) {
    out.emplace_back(msg.begin(), msg.begin() + static_cast<long>(len));
  }
  for (int k = 0; k < kSplices; ++k) {
    Bytes spliced = msg;
    const std::size_t at = rng.next_below(msg.size());
    const std::size_t len = 2 + rng.next_below(15);
    if (rng.bernoulli(0.5)) {
      for (std::size_t i = at; i < std::min(at + len, spliced.size()); ++i) {
        spliced[i] = static_cast<std::uint8_t>(rng.next_below(256));
      }
    } else {
      const Bytes& donor = donors[rng.next_below(donors.size())];
      const std::size_t from = rng.next_below(donor.size());
      if (rng.bernoulli(0.5)) {
        spliced.resize(at);
        spliced.insert(spliced.end(), donor.begin() + static_cast<long>(from),
                       donor.end());
      } else {
        for (std::size_t i = 0;
             i < len && at + i < spliced.size() && from + i < donor.size();
             ++i) {
          spliced[at + i] = donor[from + i];
        }
      }
    }
    out.push_back(std::move(spliced));
  }
  return out;
}

}  // namespace p2panon
