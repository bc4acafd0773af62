// Byte-buffer utilities shared by the crypto, erasure and wire-format layers.
//
// The whole codebase passes raw octet strings as `Bytes` (an owning vector)
// or `ByteView` (a non-owning span). Helpers here cover string round-trips,
// big-endian integer packing for wire formats, and constant-time comparison
// for MAC verification.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace p2panon {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;
using MutableByteView = std::span<std::uint8_t>;

/// Builds a Bytes from a string's raw octets (no encoding applied).
Bytes bytes_of(std::string_view s);

/// Interprets bytes as a std::string (raw octets).
std::string string_of(ByteView data);

/// Appends `src` to `dst`.
void append(Bytes& dst, ByteView src);

/// Constant-time equality; safe for comparing MACs. Returns false on length
/// mismatch without early exit on content.
bool constant_time_equal(ByteView a, ByteView b);

// --- Big-endian integer packing (wire formats) ------------------------------

void put_u16be(Bytes& out, std::uint16_t v);
void put_u32be(Bytes& out, std::uint32_t v);
void put_u64be(Bytes& out, std::uint64_t v);

std::uint16_t get_u16be(ByteView in, std::size_t offset);
std::uint32_t get_u32be(ByteView in, std::size_t offset);
std::uint64_t get_u64be(ByteView in, std::size_t offset);

// --- Little-endian loads/stores (crypto kernels) -----------------------------

inline std::uint32_t load_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void store_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline std::uint64_t load_u64le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32le(p)) |
         (static_cast<std::uint64_t>(load_u32le(p + 4)) << 32);
}

inline void store_u64le(std::uint8_t* p, std::uint64_t v) {
  store_u32le(p, static_cast<std::uint32_t>(v));
  store_u32le(p + 4, static_cast<std::uint32_t>(v >> 32));
}

// --- Big-endian loads/stores at fixed offsets (wire formats) -----------------
//
// One unaligned access plus a byte swap on little-endian hosts: the wire
// record writers store a few of these per record on the hottest path.

namespace detail {
static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian hosts are not supported");

// Host order <-> big-endian; on a little-endian host the swap is its own
// inverse.
template <typename T>
inline T big_endian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

template <typename T>
inline void store_be(std::uint8_t* p, T v) {
  v = big_endian(v);
  std::memcpy(p, &v, sizeof v);
}

template <typename T>
inline T load_be(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return big_endian(v);
}
}  // namespace detail

inline void store_u16be(std::uint8_t* p, std::uint16_t v) {
  detail::store_be(p, v);
}

inline void store_u32be(std::uint8_t* p, std::uint32_t v) {
  detail::store_be(p, v);
}

inline void store_u64be(std::uint8_t* p, std::uint64_t v) {
  detail::store_be(p, v);
}

inline std::uint16_t load_u16be(const std::uint8_t* p) {
  return detail::load_be<std::uint16_t>(p);
}

inline std::uint32_t load_u32be(const std::uint8_t* p) {
  return detail::load_be<std::uint32_t>(p);
}

inline std::uint64_t load_u64be(const std::uint8_t* p) {
  return detail::load_be<std::uint64_t>(p);
}

/// Overwrites a buffer with zeros in a way the optimizer may not elide;
/// used to scrub key material.
void secure_wipe(MutableByteView buf);

}  // namespace p2panon
