// Hex round-trips and byte concatenation for tests: known-answer vectors
// are written in hex, and pinned outputs are compared as hex strings.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace p2panon {

/// Encodes `data` as lowercase hex ("deadbeef").
inline std::string to_hex(ByteView data) {
  constexpr char kHexDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

/// Decodes a hex string (upper or lower case, even length) into bytes.
/// Throws std::invalid_argument on malformed input.
inline Bytes from_hex(std::string_view hex) {
  const auto nibble = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

/// Concatenates any number of byte views.
inline Bytes concat(std::initializer_list<ByteView> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const auto& p : parts) append(out, p);
  return out;
}

}  // namespace p2panon
