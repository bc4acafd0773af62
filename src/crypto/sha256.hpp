// SHA-256 (FIPS 180-4).
//
// Streaming interface plus a one-shot helper. Used by HMAC/HKDF and for
// message ids. Verified against the NIST known-answer vectors in
// tests/crypto_test.cpp.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace p2panon::crypto {

constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256();

  void update(ByteView data);
  Sha256Digest finish();  // finalizes; the object must not be reused after

  /// One-shot convenience.
  static Sha256Digest hash(ByteView data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace p2panon::crypto
