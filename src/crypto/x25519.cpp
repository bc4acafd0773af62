#include "crypto/x25519.hpp"

namespace p2panon::crypto {

namespace {

// Field element mod p = 2^255 - 19, five 51-bit limbs, little-endian.
//
// Limb rule: fe_mul, fe_sqr and fe_mul_small reduce exactly while every
// input limb is below 2^54, and their outputs have limbs below 2^51 + 2^15.
// A sum of two such outputs, or a difference whose right operand is one,
// stays below 2^54, so products chain without carry passes in between.
struct Fe {
  std::uint64_t v[5];
};

using u128 = unsigned __int128;

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;

Fe fe_small(std::uint64_t x) { return Fe{{x, 0, 0, 0, 0}}; }

Fe fe_add(const Fe& a, const Fe& b) {
  Fe out;
  for (int i = 0; i < 5; ++i) out.v[i] = a.v[i] + b.v[i];
  return out;
}

// a - b, adding 2p to keep limbs non-negative. Every limb of 2p is at least
// 2^52 - 38, so b must be a product output (limbs below 2^51 + 2^15).
Fe fe_sub(const Fe& a, const Fe& b) {
  // 2p in 51-bit limbs: (2^255 - 19) * 2
  static constexpr std::uint64_t two_p[5] = {
      0xfffffffffffdaULL, 0xffffffffffffeULL, 0xffffffffffffeULL,
      0xffffffffffffeULL, 0xffffffffffffeULL};
  Fe out;
  for (int i = 0; i < 5; ++i) out.v[i] = a.v[i] + two_p[i] - b.v[i];
  return out;
}

void fe_carry(Fe& f) {
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 4; ++i) {
      f.v[i + 1] += f.v[i] >> 51;
      f.v[i] &= kMask51;
    }
    f.v[0] += 19 * (f.v[4] >> 51);
    f.v[4] &= kMask51;
  }
}

// Carries 128-bit limb accumulators into five limbs, in two rounds whose
// carries are independent of each other. With input limbs below 2^54,
// every h < 77 * 2^108, so h >> 51 fits in 64 bits; h4 has no x19 terms
// (h4 < 5 * 2^108), so r0 = (h0 mod 2^51) + 19 * (h4 >> 51) < 2^64 too.
// The second round carries less than 2^13 into limbs 1-4, and less than
// 2^15 into limb 0 (h3 < 23 * 2^108 bounds r4), so every output limb is
// below 2^51 + 2^15.
Fe fe_reduce(u128 h0, u128 h1, u128 h2, u128 h3, u128 h4) {
  const std::uint64_t r0 = ((std::uint64_t)h0 & kMask51) +
                           19 * (std::uint64_t)(h4 >> 51);
  const std::uint64_t r1 =
      ((std::uint64_t)h1 & kMask51) + (std::uint64_t)(h0 >> 51);
  const std::uint64_t r2 =
      ((std::uint64_t)h2 & kMask51) + (std::uint64_t)(h1 >> 51);
  const std::uint64_t r3 =
      ((std::uint64_t)h3 & kMask51) + (std::uint64_t)(h2 >> 51);
  const std::uint64_t r4 =
      ((std::uint64_t)h4 & kMask51) + (std::uint64_t)(h3 >> 51);
  return Fe{{(r0 & kMask51) + 19 * (r4 >> 51), (r1 & kMask51) + (r0 >> 51),
             (r2 & kMask51) + (r1 >> 51), (r3 & kMask51) + (r2 >> 51),
             (r4 & kMask51) + (r3 >> 51)}};
}

Fe fe_mul(const Fe& f, const Fe& g) {
  const std::uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3],
                      f4 = f.v[4];
  const std::uint64_t g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3],
                      g4 = g.v[4];
  const std::uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
                      g4_19 = 19 * g4;

  return fe_reduce(
      (u128)f0 * g0 + (u128)f1 * g4_19 + (u128)f2 * g3_19 + (u128)f3 * g2_19 +
          (u128)f4 * g1_19,
      (u128)f0 * g1 + (u128)f1 * g0 + (u128)f2 * g4_19 + (u128)f3 * g3_19 +
          (u128)f4 * g2_19,
      (u128)f0 * g2 + (u128)f1 * g1 + (u128)f2 * g0 + (u128)f3 * g4_19 +
          (u128)f4 * g3_19,
      (u128)f0 * g3 + (u128)f1 * g2 + (u128)f2 * g1 + (u128)f3 * g0 +
          (u128)f4 * g4_19,
      (u128)f0 * g4 + (u128)f1 * g3 + (u128)f2 * g2 + (u128)f3 * g1 +
          (u128)f4 * g0);
}

// f^2 in 15 products: fe_mul(f, f) with each symmetric pair folded into one
// doubled product.
Fe fe_sqr(const Fe& f) {
  const std::uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3],
                      f4 = f.v[4];
  const std::uint64_t f0_2 = 2 * f0, f1_2 = 2 * f1;
  const std::uint64_t f3_19 = 19 * f3, f4_19 = 19 * f4;
  const std::uint64_t f3_38 = 2 * f3_19, f4_38 = 2 * f4_19;

  return fe_reduce(
      (u128)f0 * f0 + (u128)f1 * f4_38 + (u128)f2 * f3_38,
      (u128)f0_2 * f1 + (u128)f2 * f4_38 + (u128)f3 * f3_19,
      (u128)f0_2 * f2 + (u128)f1 * f1 + (u128)f3 * f4_38,
      (u128)f0_2 * f3 + (u128)f1_2 * f2 + (u128)f4 * f4_19,
      (u128)f0_2 * f4 + (u128)f1_2 * f3 + (u128)f2 * f2);
}

Fe fe_sqr_n(Fe f, int n) {
  for (int i = 0; i < n; ++i) f = fe_sqr(f);
  return f;
}

Fe fe_mul_small(const Fe& f, std::uint64_t s) {
  return fe_reduce((u128)f.v[0] * s, (u128)f.v[1] * s, (u128)f.v[2] * s,
                   (u128)f.v[3] * s, (u128)f.v[4] * s);
}

// Inversion via Fermat: f^(p-2) = f^(2^255 - 21) in 254 squarings and 11
// multiplies, building f^(2^n - 1) for n = 5, 10, 20, 40, 50, 100, 200, 250.
Fe fe_invert(const Fe& f) {
  const Fe f2 = fe_sqr(f);
  const Fe f9 = fe_mul(fe_sqr_n(f2, 2), f);
  const Fe f11 = fe_mul(f9, f2);
  const Fe e5 = fe_mul(fe_sqr(f11), f9);
  const Fe e10 = fe_mul(fe_sqr_n(e5, 5), e5);
  const Fe e20 = fe_mul(fe_sqr_n(e10, 10), e10);
  const Fe e40 = fe_mul(fe_sqr_n(e20, 20), e20);
  const Fe e50 = fe_mul(fe_sqr_n(e40, 10), e10);
  const Fe e100 = fe_mul(fe_sqr_n(e50, 50), e50);
  const Fe e200 = fe_mul(fe_sqr_n(e100, 100), e100);
  const Fe e250 = fe_mul(fe_sqr_n(e200, 50), e50);
  return fe_mul(fe_sqr_n(e250, 5), f11);  // 2^255 - 32 + 11
}

Fe fe_from_bytes(const std::uint8_t bytes[32]) {
  // Limb i holds bits [51*i, 51*i + 51); masking limb 4 to 51 bits also
  // discards bit 255, as RFC 7748 requires.
  auto load = [&](int byte, int shift) {
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= (std::uint64_t)bytes[byte + i] << (8 * i);
    }
    return out >> shift;
  };
  Fe out;
  out.v[0] = load(0, 0) & kMask51;
  out.v[1] = load(6, 3) & kMask51;
  out.v[2] = load(12, 6) & kMask51;
  out.v[3] = load(19, 1) & kMask51;
  out.v[4] = load(24, 12) & kMask51;
  return out;
}

void fe_to_bytes(std::uint8_t out[32], Fe f) {
  fe_carry(f);
  // Canonicalize: subtract p if f >= p, twice to be safe.
  for (int pass = 0; pass < 2; ++pass) {
    Fe g{};
    g.v[0] = f.v[0] + 19;
    std::uint64_t carry = g.v[0] >> 51;
    g.v[0] &= kMask51;
    for (int i = 1; i < 5; ++i) {
      g.v[i] = f.v[i] + carry;
      carry = g.v[i] >> 51;
      g.v[i] &= kMask51;
    }
    // carry is 1 iff f + 19 >= 2^255, i.e. f >= p; then f = g = f - p.
    const std::uint64_t mask = 0 - carry;
    for (int i = 0; i < 5; ++i) f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
  }
  std::uint64_t packed[4];
  packed[0] = f.v[0] | (f.v[1] << 51);
  packed[1] = (f.v[1] >> 13) | (f.v[2] << 38);
  packed[2] = (f.v[2] >> 26) | (f.v[3] << 25);
  packed[3] = (f.v[3] >> 39) | (f.v[4] << 12);
  for (int i = 0; i < 4; ++i) store_u64le(out + 8 * i, packed[i]);
}

void fe_cswap(std::uint64_t swap, Fe& a, Fe& b) {
  const std::uint64_t mask = 0 - swap;  // all-ones when swap == 1
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= t;
    b.v[i] ^= t;
  }
}

X25519Key clamp(const X25519Key& scalar) {
  X25519Key k = scalar;
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;
  return k;
}

// --- edwards25519, for the fixed-base comb ---------------------------------
//
// -x^2 + y^2 = 1 + d x^2 y^2 with d = -121665/121666 is birationally
// equivalent to Curve25519 via u = (1 + y) / (1 - y); the base point
// B = (x_B, 4/5) maps to u = 9. Since u does not depend on the sign of x,
// [k]B on this curve gives X25519's u for every scalar. The formulas below
// follow the limb rule above, so they carry no reductions either.

// Extended coordinates: x = X/Z, y = Y/Z, T = XY/Z.
struct GeP3 {
  Fe x, y, z, t;
};

// An affine point as (y + x, y - x, 2dxy).
struct GePrecomp {
  Fe yplusx, yminusx, xy2d;
};

// p + q, add-2008-hwcd-3 with a = -1 and Z2 = 1; complete (doublings
// included) because a = -1 is a square mod p and d is not.
GeP3 ge_madd(const GeP3& p, const GePrecomp& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.yminusx);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.yplusx);
  const Fe c = fe_mul(p.t, q.xy2d);
  const Fe d = fe_add(p.z, p.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return GeP3{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// 2p, dbl-2008-hwcd with a = -1, every coordinate negated (the same
// projective point) so each subtrahend is a product output.
GeP3 ge_dbl(const GeP3& p) {
  const Fe xx = fe_sqr(p.x);
  const Fe yy = fe_sqr(p.y);
  const Fe zz = fe_sqr(p.z);
  const Fe e = fe_sub(fe_sub(fe_sqr(fe_add(p.x, p.y)), xx), yy);  // 2XY
  const Fe g = fe_sub(yy, xx);
  const Fe f = fe_sub(fe_add(fe_add(zz, zz), xx), yy);  // 2Z^2 - g
  const Fe h = fe_add(xx, yy);
  return GeP3{fe_mul(e, f), fe_mul(h, g), fe_mul(g, f), fe_mul(e, h)};
}

GePrecomp to_precomp(const GeP3& p, const Fe& d2) {
  const Fe z_inv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, z_inv);
  const Fe y = fe_mul(p.y, z_inv);
  return GePrecomp{fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), d2)};
}

// p[i][j] = (j + 1) * 16^(2i) * B: ref10's signed radix-16 comb table.
struct BaseTable {
  GePrecomp p[32][8];
  BaseTable();
};

BaseTable::BaseTable() {
  // x_B, little-endian.
  static constexpr std::uint8_t kBaseX[32] = {
      0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25,
      0x95, 0x60, 0xc7, 0x2c, 0x69, 0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2,
      0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21};
  const Fe d = fe_mul(fe_sub(fe_small(0), fe_small(121665)),
                      fe_invert(fe_small(121666)));
  const Fe d2 = fe_add(d, d);
  const Fe x = fe_from_bytes(kBaseX);
  const Fe y = fe_mul(fe_small(4), fe_invert(fe_small(5)));
  GeP3 row_base{x, y, fe_small(1), fe_mul(x, y)};  // 16^(2i) * B
  for (auto& row : p) {
    row[0] = to_precomp(row_base, d2);
    GeP3 multiple = row_base;
    for (int j = 1; j < 8; ++j) {
      multiple = ge_madd(multiple, row[0]);
      row[j] = to_precomp(multiple, d2);
    }
    for (int i = 0; i < 8; ++i) row_base = ge_dbl(row_base);
  }
}

// b * 16^(2i) * B for a digit b in [-8, 8] (the identity for b = 0): masks
// over all 8 entries, then negation by swapping y +- x and negating 2dxy. No
// branch or index depends on b. The unrolled loops keep the 15 accumulated
// limbs in registers.
GePrecomp ge_select(const GePrecomp (&row)[8], std::int8_t b) {
  const std::uint64_t negative = static_cast<std::uint64_t>(b) >> 63;
  const std::uint64_t b_abs = static_cast<std::uint64_t>(
      b - ((-static_cast<std::int64_t>(negative) & b) * 2));
  std::uint64_t yp[5] = {1, 0, 0, 0, 0};
  std::uint64_t ym[5] = {1, 0, 0, 0, 0};
  std::uint64_t xy[5] = {0, 0, 0, 0, 0};
#pragma GCC unroll 8
  for (std::uint64_t j = 0; j < 8; ++j) {
    const std::uint64_t mask = 0 - (((b_abs ^ (j + 1)) - 1) >> 63);
#pragma GCC unroll 5
    for (int i = 0; i < 5; ++i) {
      yp[i] ^= mask & (yp[i] ^ row[j].yplusx.v[i]);
      ym[i] ^= mask & (ym[i] ^ row[j].yminusx.v[i]);
      xy[i] ^= mask & (xy[i] ^ row[j].xy2d.v[i]);
    }
  }
  const Fe minus_xy =
      fe_sub(fe_small(0), Fe{{xy[0], xy[1], xy[2], xy[3], xy[4]}});
  const std::uint64_t neg_mask = 0 - negative;
  GePrecomp t{};
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t swap = neg_mask & (yp[i] ^ ym[i]);
    t.yplusx.v[i] = yp[i] ^ swap;
    t.yminusx.v[i] = ym[i] ^ swap;
    t.xy2d.v[i] = xy[i] ^ (neg_mask & (xy[i] ^ minus_xy.v[i]));
  }
  return t;
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& u_point) {
  const X25519Key k = clamp(scalar);

  const Fe x1 = fe_from_bytes(u_point.data());
  Fe x2 = fe_small(1);
  Fe z2 = fe_small(0);
  Fe x3 = x1;
  Fe z3 = fe_small(1);
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    fe_cswap(swap, x2, x3);
    fe_cswap(swap, z2, z3);
    swap = k_t;

    // No carry passes: x2, z2, x3, z3 are product outputs (or 0, 1, x1), so
    // by the limb rule every sum and difference below stays under 2^54, and
    // each difference subtracts a product output.
    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_sqr(a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_sqr(b);
    const Fe e = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    x3 = fe_sqr(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sqr(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
  }

  fe_cswap(swap, x2, x3);
  fe_cswap(swap, z2, z3);

  const Fe result = fe_mul(x2, fe_invert(z2));
  X25519Key out;
  fe_to_bytes(out.data(), result);
  return out;
}

X25519Key x25519_base(const X25519Key& scalar) {
  // Built on first use; the magic static makes that thread-safe.
  static const BaseTable table;
  const X25519Key k = clamp(scalar);

  // Signed radix-16 digits: k = sum e[i] * 16^i with e[i] in [-8, 8]
  // (k[31] <= 127, so the top digit takes at most a carry of 1).
  std::int8_t e[64]{};
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(k[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(k[i] >> 4);
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int digit = e[i] + carry;
    carry = (digit + 8) >> 4;
    e[i] = static_cast<std::int8_t>(digit - (carry << 4));
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  // Odd digits, times 16, plus even digits: 64 mixed additions, 4 doublings.
  GeP3 h{fe_small(0), fe_small(1), fe_small(1), fe_small(0)};
  for (int i = 1; i < 64; i += 2) {
    h = ge_madd(h, ge_select(table.p[i / 2], e[i]));
  }
  for (int i = 0; i < 4; ++i) h = ge_dbl(h);
  for (int i = 0; i < 64; i += 2) {
    h = ge_madd(h, ge_select(table.p[i / 2], e[i]));
  }

  // u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y).
  const Fe u = fe_mul(fe_add(h.z, h.y), fe_invert(fe_sub(h.z, h.y)));
  X25519Key out;
  fe_to_bytes(out.data(), u);
  return out;
}

}  // namespace p2panon::crypto
