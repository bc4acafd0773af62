// X25519 Diffie–Hellman over Curve25519 (RFC 7748).
//
// Field arithmetic mod 2^255 - 19 in five 51-bit limbs. Products reduce
// exactly while every input limb is below 2^54, and a sum or difference of
// two product outputs stays below that, so neither scalar multiplication
// spends carry passes between products.
//
// x25519 is a constant-time Montgomery ladder, the only variable-base path.
// x25519_base computes [k]B on the birationally equivalent edwards25519
// with ref10's fixed-base comb: signed radix-16 digits, 64 mixed additions
// over a 30 KB table of multiples of B, and 4 doublings. Each digit reads
// all 8 entries of its table row, so no memory access depends on the
// scalar. The table is built once per process, on first use (thread-safe). x25519_base(k) returns the same bytes as x25519(k, 9).
// Verified against the RFC 7748 §5.2 and §6.1 vectors.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace p2panon::crypto {

constexpr std::size_t kX25519KeySize = 32;
using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

/// Scalar multiplication: out = scalar * point (u-coordinate). The scalar
/// is clamped per RFC 7748.
X25519Key x25519(const X25519Key& scalar, const X25519Key& u_point);

/// Public key for a (clamped) private scalar: scalar * base point (u = 9).
X25519Key x25519_base(const X25519Key& scalar);

}  // namespace p2panon::crypto
