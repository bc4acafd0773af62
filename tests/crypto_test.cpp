// Known-answer and property tests for the crypto substrate.
//
// KATs come from FIPS 180-4 / RFC 4231 / RFC 5869 / RFC 8439 / RFC 7748;
// property tests check round-trips, tamper detection and key separation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keys.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sealed_box.hpp"
#include "crypto/segment_auth.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"

#include "byte_helpers.hpp"

namespace p2panon::crypto {
namespace {

std::string hex_of_digest(const Sha256Digest& d) {
  return to_hex(ByteView(d.data(), d.size()));
}

template <std::size_t N>
std::array<std::uint8_t, N> array_from_hex(std::string_view hex) {
  const Bytes b = from_hex(hex);
  EXPECT_EQ(b.size(), N);
  std::array<std::uint8_t, N> out{};
  std::memcpy(out.data(), b.data(), N);
  return out;
}

// --- SHA-256 -----------------------------------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(hex_of_digest(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(hex_of_digest(Sha256::hash(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(hex_of_digest(Sha256::hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of_digest(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  Rng rng(42);
  for (std::size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 1000u}) {
    Bytes data(len);
    rng.fill(data.data(), data.size());
    const auto oneshot = Sha256::hash(data);
    Sha256 streaming;
    // Feed in irregular chunks.
    std::size_t offset = 0;
    std::size_t step = 1;
    while (offset < data.size()) {
      const std::size_t take = std::min(step, data.size() - offset);
      streaming.update(ByteView(data).subspan(offset, take));
      offset += take;
      step = step * 2 + 1;
    }
    EXPECT_EQ(streaming.finish(), oneshot) << "len=" << len;
  }
}

// --- HMAC / HKDF ---------------------------------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(key, bytes_of("Hi There"));
  EXPECT_EQ(hex_of_digest(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const auto mac = hmac_sha256(bytes_of("Jefe"),
                               bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(hex_of_digest(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const auto mac = hmac_sha256(key, data);
  EXPECT_EQ(hex_of_digest(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HkdfTest, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3NoSaltNoInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31"
            "b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// RFC 4231 cases 6 and 7: 131-byte keys, longer than the SHA-256 block, so
// HMAC must hash the key first — the long-key path the short-key cases
// above never reach.
TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex_of_digest(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LongKeyLongData) {
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key,
      bytes_of("This is a test using a larger than block-size key and a "
               "larger than block-size data. The key needs to be hashed "
               "before being used by the HMAC algorithm."));
  EXPECT_EQ(hex_of_digest(mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// RFC 5869 case 2: maximum-length inputs with multi-block expand (L = 82
// spans three HMAC rounds).
TEST(HkdfTest, Rfc5869Case2LongInputs) {
  Bytes ikm, salt, info;
  for (int b = 0x00; b <= 0x4f; ++b) ikm.push_back(static_cast<std::uint8_t>(b));
  for (int b = 0x60; b <= 0xaf; ++b) salt.push_back(static_cast<std::uint8_t>(b));
  for (int b = 0xb0; b <= 0xff; ++b) info.push_back(static_cast<std::uint8_t>(b));
  const Sha256Digest prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_of_digest(prk),
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244");
  const Bytes okm = hkdf(salt, ikm, info, 82);
  EXPECT_EQ(to_hex(okm),
            "b11e398dc80327a1c8e7f78c596a4934"
            "4f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09"
            "da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f"
            "1d87");
}

// --- ChaCha20 --------------------------------------------------------------------

TEST(ChaCha20Test, Rfc8439BlockFunction) {
  const auto key = array_from_hex<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = array_from_hex<12>("000000090000004a00000000");
  const auto block = chacha20_block(key, nonce, 1);
  EXPECT_EQ(to_hex(ByteView(block.data(), block.size())),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439Encryption) {
  const auto key = array_from_hex<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = array_from_hex<12>("000000000000004a00000000");
  const Bytes plaintext = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const Bytes ciphertext = chacha20_encrypt(key, nonce, 1, plaintext);
  EXPECT_EQ(to_hex(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d");
}

TEST(ChaCha20Test, XorRoundTrips) {
  Rng rng(7);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  ChaChaNonce nonce;
  rng.fill(nonce.data(), nonce.size());
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 129u, 4096u}) {
    Bytes data(len);
    rng.fill(data.data(), data.size());
    Bytes round = chacha20_encrypt(key, nonce, 0, data);
    chacha20_xor(key, nonce, 0, round);
    EXPECT_EQ(round, data) << "len=" << len;
  }
}

TEST(ChaCha20Test, OutOfPlaceMatchesInPlaceAndPreservesSource) {
  Rng rng(8);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  ChaChaNonce nonce;
  rng.fill(nonce.data(), nonce.size());
  Bytes src(1000);
  rng.fill(src.data(), src.size());
  const Bytes src_copy = src;
  Bytes dst(src.size(), 0xcc);
  chacha20_xor(key, nonce, 5, src, dst);
  EXPECT_EQ(src, src_copy);  // the drift bug: src must not be consumed
  Bytes in_place = src;
  chacha20_xor(key, nonce, 5, in_place);
  EXPECT_EQ(dst, in_place);
  EXPECT_THROW(
      chacha20_xor(key, nonce, 0, src, MutableByteView(dst.data(), 999)),
      std::invalid_argument);
}

// Regression for the counter-wrap keystream-reuse bug: the keystream block
// index used to be incremented as a 32-bit state word and silently wrapped
// to block 0 after 256 GiB under one (key, nonce). Running up to the
// boundary must match per-block outputs exactly; running past it must
// throw, never reuse keystream.
TEST(ChaCha20Test, CounterBoundaryMatchesBlockFunction) {
  Rng rng(15);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  ChaChaNonce nonce;
  rng.fill(nonce.data(), nonce.size());
  // Last 4 blocks of the counter space, ending exactly at 2^32.
  const std::uint32_t start = 0xfffffffcu;
  Bytes zeros(4 * 64, 0);
  const Bytes keystream = chacha20_encrypt(key, nonce, start, zeros);
  for (int b = 0; b < 4; ++b) {
    const auto expect = chacha20_block(key, nonce, start + b);
    const Bytes got(keystream.begin() + b * 64, keystream.begin() + (b + 1) * 64);
    EXPECT_EQ(got, Bytes(expect.begin(), expect.end())) << "block " << b;
  }
}

TEST(ChaCha20Test, ThrowsInsteadOfWrappingCounter) {
  Rng rng(16);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  ChaChaNonce nonce;
  rng.fill(nonce.data(), nonce.size());
  Bytes data(5 * 64);
  // 5 blocks needed, only 4 left in the 32-bit space: must throw.
  EXPECT_THROW(chacha20_xor(key, nonce, 0xfffffffcu, data),
               std::length_error);
  // A partial fifth block also spills: 4 blocks + 1 byte.
  Bytes partial(4 * 64 + 1);
  EXPECT_THROW(chacha20_xor(key, nonce, 0xfffffffcu, partial),
               std::length_error);
  // Exactly fitting is fine.
  Bytes fits(4 * 64);
  EXPECT_NO_THROW(chacha20_xor(key, nonce, 0xfffffffcu, fits));
  // Every forced kernel enforces the same contract.
  for (const auto k : crypto_detail::kAllKernels) {
    if (!crypto_detail::kernel_available(k)) continue;
    Bytes out(data.size());
    EXPECT_THROW(
        crypto_detail::chacha20_xor(k, key, nonce, 0xfffffffcu, data, out),
        std::length_error)
        << crypto_detail::kernel_label(k);
  }
}

// --- ChaCha20 kernel golden vectors ------------------------------------------------
//
// Every kernel variant (ref / wide4 / ssse3 / avx2) must be byte-identical
// to the reference across sizes straddling every batch width (64-byte
// block, 256-byte 4-block batch, 512-byte 8-block batch) and across
// counter positions including the top of the 32-bit space. Mirrors the
// gf256_detail golden-vector pattern.
TEST(ChaCha20KernelTest, AllKernelsMatchReferenceAcrossSizes) {
  Rng rng(17);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  ChaChaNonce nonce;
  rng.fill(nonce.data(), nonce.size());
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 130; ++n) sizes.push_back(n);
  for (std::size_t n : {192u, 255u, 256u, 257u, 319u, 320u, 511u, 512u, 513u,
                        768u, 1023u, 1024u, 2048u, 4095u, 4096u}) {
    sizes.push_back(n);
  }
  Bytes src(4096 + 1);
  rng.fill(src.data(), src.size());
  for (const std::size_t len : sizes) {
    const ByteView input = ByteView(src).first(len);
    Bytes expect(len);
    crypto_detail::chacha20_xor(crypto_detail::Kernel::kRef, key, nonce, 1,
                                input, expect);
    for (const auto k : crypto_detail::kAllKernels) {
      if (!crypto_detail::kernel_available(k)) continue;
      Bytes got(len, 0xa5);
      crypto_detail::chacha20_xor(k, key, nonce, 1, input, got);
      EXPECT_EQ(got, expect)
          << "kernel=" << crypto_detail::kernel_label(k) << " len=" << len;
    }
  }
}

TEST(ChaCha20KernelTest, AllKernelsMatchReferenceAtCounterBoundary) {
  Rng rng(18);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  ChaChaNonce nonce;
  rng.fill(nonce.data(), nonce.size());
  Bytes src(16 * 64);
  rng.fill(src.data(), src.size());
  // Starting counters that make the batched kernels' lane counters span
  // the very top of the 32-bit space.
  for (const std::uint32_t start :
       {0u, 1u, 0xfffffff0u, 0xfffffff7u, 0xfffffff9u}) {
    const std::size_t blocks_left =
        static_cast<std::size_t>((std::uint64_t{1} << 32) - start);
    const std::size_t len = std::min<std::size_t>(src.size(), blocks_left * 64);
    const ByteView input = ByteView(src).first(len);
    Bytes expect(len);
    crypto_detail::chacha20_xor(crypto_detail::Kernel::kRef, key, nonce,
                                start, input, expect);
    for (const auto k : crypto_detail::kAllKernels) {
      if (!crypto_detail::kernel_available(k)) continue;
      Bytes got(len, 0x5a);
      crypto_detail::chacha20_xor(k, key, nonce, start, input, got);
      EXPECT_EQ(got, expect)
          << "kernel=" << crypto_detail::kernel_label(k)
          << " counter=" << start;
    }
  }
}

TEST(ChaCha20KernelTest, DispatchedKernelIsAvailableAndLabeled) {
  const std::string name = chacha20_kernel_name();
  EXPECT_TRUE(name == "avx2" || name == "ssse3" || name == "wide4") << name;
  EXPECT_TRUE(crypto_detail::kernel_available(crypto_detail::Kernel::kRef));
  EXPECT_TRUE(crypto_detail::kernel_available(crypto_detail::Kernel::kWide4));
  for (const auto k : crypto_detail::kAllKernels) {
    EXPECT_STRNE(crypto_detail::kernel_label(k), "?");
  }
}

// --- Poly1305 ---------------------------------------------------------------------

TEST(Poly1305Test, Rfc8439Vector) {
  const auto key = array_from_hex<32>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const auto tag =
      poly1305(key, bytes_of("Cryptographic Forum Research Group"));
  EXPECT_EQ(to_hex(ByteView(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305Test, VerifyRejectsTamper) {
  Rng rng(9);
  PolyKey key;
  rng.fill(key.data(), key.size());
  Bytes msg(100);
  rng.fill(msg.data(), msg.size());
  const PolyTag tag = poly1305(key, msg);
  EXPECT_TRUE(poly1305_verify(tag, key, msg));
  msg[50] ^= 1;
  EXPECT_FALSE(poly1305_verify(tag, key, msg));
}

// Edge cases around the 16-byte block boundary.
class Poly1305LengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Poly1305LengthTest, TagChangesWithAnyBitFlip) {
  Rng rng(11 + GetParam());
  PolyKey key;
  rng.fill(key.data(), key.size());
  Bytes msg(GetParam());
  rng.fill(msg.data(), msg.size());
  const PolyTag tag = poly1305(key, msg);
  if (!msg.empty()) {
    Bytes tampered = msg;
    tampered[GetParam() / 2] ^= 0x80;
    EXPECT_NE(poly1305(key, tampered), tag);
  }
  // Appending a zero byte must also change the tag (length binding).
  Bytes extended = msg;
  extended.push_back(0);
  EXPECT_NE(poly1305(key, extended), tag);
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, Poly1305LengthTest,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 64,
                                           255));

// The incremental Poly1305 class must match the one-shot function no matter
// how the message is chunked across update() calls.
TEST(Poly1305IncrementalTest, MatchesOneShotAcrossChunkings) {
  Rng rng(21);
  PolyKey key;
  rng.fill(key.data(), key.size());
  for (const std::size_t len : {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u, 300u}) {
    Bytes msg(len);
    rng.fill(msg.data(), msg.size());
    const PolyTag oneshot = poly1305(key, msg);
    for (const std::size_t chunk : {1u, 3u, 16u, 17u, 64u, 1000u}) {
      Poly1305 mac(key);
      for (std::size_t off = 0; off < msg.size(); off += chunk) {
        mac.update(ByteView(msg).subspan(off, std::min(chunk, msg.size() - off)));
      }
      EXPECT_EQ(mac.finish(), oneshot) << "len=" << len << " chunk=" << chunk;
    }
  }
}

// pad16() must be equivalent to feeding explicit zero padding to the next
// 16-byte boundary — the property the AEAD mac construction relies on to
// avoid materializing aad || pad || ct || pad.
TEST(Poly1305IncrementalTest, Pad16MatchesExplicitZeroPadding) {
  Rng rng(22);
  PolyKey key;
  rng.fill(key.data(), key.size());
  for (const std::size_t a_len : {0u, 1u, 12u, 16u, 17u, 40u}) {
    Bytes a(a_len), b(33);
    rng.fill(a.data(), a.size());
    rng.fill(b.data(), b.size());
    Poly1305 inc(key);
    inc.update(a);
    inc.pad16();
    inc.update(b);
    Bytes flat = a;
    flat.resize((a.size() + 15) / 16 * 16, 0);
    flat.insert(flat.end(), b.begin(), b.end());
    EXPECT_EQ(inc.finish(), poly1305(key, flat)) << "a_len=" << a_len;
  }
}

// --- AEAD -------------------------------------------------------------------------

TEST(AeadTest, Rfc8439Vector) {
  const auto key = array_from_hex<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const auto nonce = array_from_hex<12>("070000004041424344454647");
  const Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const Bytes plaintext = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const Bytes sealed = aead_seal(key, nonce, aad, plaintext);
  ASSERT_EQ(sealed.size(), plaintext.size() + kAeadTagSize);
  EXPECT_EQ(to_hex(ByteView(sealed).subspan(plaintext.size())),
            "1ae10b594f09e26a7e902ecbd0600691");
  EXPECT_EQ(to_hex(ByteView(sealed).first(16)),
            "d31a8d34648e60db7b86afbc53ef7ec2");

  const auto opened = aead_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(AeadTest, RejectsTamperedCiphertext) {
  Rng rng(12);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  const ChaChaNonce nonce = nonce_from_seq(3);
  Bytes sealed = aead_seal(key, nonce, {}, bytes_of("secret payload"));
  sealed[3] ^= 0x40;
  EXPECT_FALSE(aead_open(key, nonce, {}, sealed).has_value());
}

TEST(AeadTest, RejectsWrongAad) {
  Rng rng(13);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  const ChaChaNonce nonce = nonce_from_seq(4);
  const Bytes sealed = aead_seal(key, nonce, bytes_of("aad-a"), bytes_of("m"));
  EXPECT_FALSE(aead_open(key, nonce, bytes_of("aad-b"), sealed).has_value());
  EXPECT_TRUE(aead_open(key, nonce, bytes_of("aad-a"), sealed).has_value());
}

TEST(AeadTest, RejectsTruncation) {
  Rng rng(14);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  const ChaChaNonce nonce = nonce_from_seq(5);
  Bytes sealed = aead_seal(key, nonce, {}, bytes_of("hello"));
  sealed.resize(kAeadTagSize - 1);
  EXPECT_FALSE(aead_open(key, nonce, {}, sealed).has_value());
}

// --- In-place AEAD ----------------------------------------------------------------

// The zero-allocation forms must produce byte-identical output to the
// allocating ones across message sizes (including empty).
TEST(AeadInPlaceTest, SealIntoMatchesAeadSeal) {
  Rng rng(23);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  const ChaChaNonce nonce = nonce_from_seq(9);
  const Bytes aad = bytes_of("layer-aad");
  for (const std::size_t len : {0u, 1u, 15u, 16u, 63u, 64u, 65u, 1024u}) {
    Bytes plaintext(len);
    rng.fill(plaintext.data(), plaintext.size());
    const Bytes expect = aead_seal(key, nonce, aad, plaintext);
    Bytes buf = plaintext;
    buf.resize(buf.size() + kAeadTagSize);
    aead_seal_into(key, nonce, aad, buf);
    EXPECT_EQ(buf, expect) << "len=" << len;
  }
}

TEST(AeadInPlaceTest, OpenIntoRoundTripsRfc8439Vector) {
  const auto key = array_from_hex<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const auto nonce = array_from_hex<12>("070000004041424344454647");
  const Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const Bytes plaintext = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Bytes buf = plaintext;
  buf.resize(buf.size() + kAeadTagSize);
  aead_seal_into(key, nonce, aad, buf);
  EXPECT_EQ(to_hex(ByteView(buf).subspan(plaintext.size())),
            "1ae10b594f09e26a7e902ecbd0600691");
  ASSERT_TRUE(aead_open_into(key, nonce, aad, buf));
  EXPECT_EQ(Bytes(buf.begin(), buf.end() - kAeadTagSize), plaintext);
}

TEST(AeadInPlaceTest, OpenIntoLeavesBufferUnchangedOnFailure) {
  Rng rng(24);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  const ChaChaNonce nonce = nonce_from_seq(10);
  Bytes buf = bytes_of("attack at dawn");
  buf.resize(buf.size() + kAeadTagSize);
  aead_seal_into(key, nonce, {}, buf);
  Bytes tampered = buf;
  tampered[0] ^= 0x01;
  const Bytes before = tampered;
  EXPECT_FALSE(aead_open_into(key, nonce, {}, tampered));
  EXPECT_EQ(tampered, before);  // no partial decrypt on auth failure
  // Wrong AAD also fails; correct inputs still open.
  Bytes wrong_aad = buf;
  EXPECT_FALSE(aead_open_into(key, nonce, bytes_of("x"), wrong_aad));
  EXPECT_TRUE(aead_open_into(key, nonce, {}, buf));
}

TEST(AeadInPlaceTest, RejectsBufferSmallerThanTag) {
  Rng rng(25);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  const ChaChaNonce nonce = nonce_from_seq(11);
  Bytes tiny(kAeadTagSize - 1);
  EXPECT_THROW(aead_seal_into(key, nonce, {}, tiny), std::invalid_argument);
  EXPECT_FALSE(aead_open_into(key, nonce, {}, tiny));
}

// --- X25519 -------------------------------------------------------------------------

TEST(X25519Test, Rfc7748Vector1) {
  const auto scalar = array_from_hex<32>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto point = array_from_hex<32>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  const auto out = x25519(scalar, point);
  EXPECT_EQ(to_hex(ByteView(out.data(), out.size())),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519Test, Rfc7748DiffieHellman) {
  const auto alice_priv = array_from_hex<32>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const auto bob_priv = array_from_hex<32>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");

  const auto alice_pub = x25519_base(alice_priv);
  const auto bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(to_hex(ByteView(alice_pub.data(), alice_pub.size())),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(to_hex(ByteView(bob_pub.data(), bob_pub.size())),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  const auto shared_a = x25519(alice_priv, bob_pub);
  const auto shared_b = x25519(bob_priv, alice_pub);
  EXPECT_EQ(shared_a, shared_b);
  EXPECT_EQ(to_hex(ByteView(shared_a.data(), shared_a.size())),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519Test, Rfc7748IteratedVector) {
  // RFC 7748 §5.2: iterate k, u = X25519(k, u), k_new = old u.
  auto k = array_from_hex<32>(
      "0900000000000000000000000000000000000000000000000000000000000000");
  auto u = k;
  for (int i = 0; i < 1; ++i) {
    const auto out = x25519(k, u);
    u = k;
    k = out;
  }
  EXPECT_EQ(to_hex(ByteView(k.data(), k.size())),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
  // Continue to 1000 iterations (the RFC's second checkpoint).
  for (int i = 1; i < 1000; ++i) {
    const auto out = x25519(k, u);
    u = k;
    k = out;
  }
  EXPECT_EQ(to_hex(ByteView(k.data(), k.size())),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519Test, SharedSecretAgreesForRandomKeys) {
  Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    const KeyPair a = KeyPair::generate(rng);
    const KeyPair b = KeyPair::generate(rng);
    EXPECT_EQ(x25519(a.private_key, b.public_key),
              x25519(b.private_key, a.public_key));
  }
}

// One digest over both scalar multiplications for a fixed stream of random
// (k, u) pairs; u keeps its random bit 255. Any output change in either
// function moves it.
TEST(X25519Test, SeededOutputsArePinned) {
  Rng rng(7748);
  Sha256 h;
  for (int i = 0; i < 4096; ++i) {
    X25519Key k, u;
    rng.fill(k.data(), k.size());
    rng.fill(u.data(), u.size());
    const X25519Key pub = x25519_base(k);
    const X25519Key shared = x25519(k, u);
    h.update(ByteView(pub.data(), pub.size()));
    h.update(ByteView(shared.data(), shared.size()));
  }
  EXPECT_EQ(hex_of_digest(h.finish()),
            "a3f554df6db3c5f0cd48961ab162622a15347d47cd0e8ab1ce7994ee6fc066a4");
}

// The variable-base ladder on u = 9 is the reference for x25519_base.
TEST(X25519Test, BaseMatchesLadderOnU9) {
  X25519Key nine{};
  nine[0] = 9;
  std::vector<X25519Key> scalars;
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    X25519Key k;
    rng.fill(k.data(), k.size());
    scalars.push_back(k);
  }
  X25519Key all_zero{}, all_ff;
  all_ff.fill(0xff);
  scalars.push_back(all_zero);
  scalars.push_back(all_ff);
  for (int bit = 0; bit < 256; ++bit) {
    X25519Key k{};
    k[bit / 8] = static_cast<std::uint8_t>(1u << (bit % 8));
    scalars.push_back(k);
  }
  for (const X25519Key& k : scalars) {
    EXPECT_EQ(x25519_base(k), x25519(k, nine))
        << to_hex(ByteView(k.data(), k.size()));
  }
}

// RFC 7748 §5: bit 255 of u is masked and u is reduced mod p.
TEST(X25519Test, NonCanonicalUIsMaskedAndReduced) {
  const auto k = array_from_hex<32>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto hex = [](const X25519Key& out) {
    return to_hex(ByteView(out.data(), out.size()));
  };
  const std::string zero(64, '0');
  X25519Key p;  // 2^255 - 19
  p.fill(0xff);
  p[0] = 0xed;
  p[31] = 0x7f;
  X25519Key p_plus_1 = p;
  p_plus_1[0] = 0xee;
  X25519Key top = p;  // 2^255 - 1 = p + 18
  top[0] = 0xff;
  X25519Key eighteen{};
  eighteen[0] = 18;
  EXPECT_EQ(hex(x25519(k, p)), zero);
  EXPECT_EQ(hex(x25519(k, p_plus_1)), zero);
  EXPECT_EQ(hex(x25519(k, top)),
            "76b00406ce7e87774c0038dd8d89b188047977f8828ca1dcb8f98bb5d5d0cf48");
  EXPECT_EQ(x25519(k, top), x25519(k, eighteen));

  // RFC 7748 §5.2 second vector: its u has bit 255 set.
  const auto k2 = array_from_hex<32>(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto u2 = array_from_hex<32>(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(hex(x25519(k2, u2)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
  const X25519Key masked = x25519(k2, u2);
  u2[31] &= 0x7f;
  EXPECT_EQ(x25519(k2, u2), masked);
}

// --- Sealed box + keys -------------------------------------------------------------

TEST(SealedBoxTest, RoundTrip) {
  Rng rng(21);
  const KeyPair recipient = KeyPair::generate(rng);
  const Bytes msg = bytes_of("onion layer: next hop 42, key deadbeef");
  const Bytes sealed = sealed_box_seal(recipient.public_key, msg, rng);
  EXPECT_EQ(sealed.size(), msg.size() + kSealedBoxOverhead);
  const auto opened = sealed_box_open(recipient, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(SealedBoxTest, WrongRecipientFails) {
  Rng rng(22);
  const KeyPair recipient = KeyPair::generate(rng);
  const KeyPair other = KeyPair::generate(rng);
  const Bytes sealed =
      sealed_box_seal(recipient.public_key, bytes_of("secret"), rng);
  EXPECT_FALSE(sealed_box_open(other, sealed).has_value());
}

TEST(SealedBoxTest, TamperFails) {
  Rng rng(23);
  const KeyPair recipient = KeyPair::generate(rng);
  Bytes sealed = sealed_box_seal(recipient.public_key, bytes_of("secret"), rng);
  sealed[sealed.size() - 1] ^= 1;
  EXPECT_FALSE(sealed_box_open(recipient, sealed).has_value());
  sealed[sealed.size() - 1] ^= 1;
  sealed[0] ^= 1;  // corrupt the ephemeral public key
  EXPECT_FALSE(sealed_box_open(recipient, sealed).has_value());
}

TEST(SealedBoxTest, SealingIsRandomized) {
  Rng rng(24);
  const KeyPair recipient = KeyPair::generate(rng);
  const Bytes a = sealed_box_seal(recipient.public_key, bytes_of("m"), rng);
  const Bytes b = sealed_box_seal(recipient.public_key, bytes_of("m"), rng);
  EXPECT_NE(a, b);
}

TEST(SealedBoxTest, EmptyPlaintext) {
  Rng rng(25);
  const KeyPair recipient = KeyPair::generate(rng);
  const Bytes sealed = sealed_box_seal(recipient.public_key, {}, rng);
  const auto opened = sealed_box_open(recipient, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

// With eph_pub u = 0 or u = 1, X25519 returns 32 zero bytes for every
// recipient, so anyone can derive the box key. Forge such boxes the way
// sealed_box_seal would; they must not open.
TEST(SealedBoxTest, RejectsLowOrderEphemeralKey) {
  Rng rng(26);
  const KeyPair recipient = KeyPair::generate(rng);
  const X25519Key zero{};
  for (const std::uint8_t u : {0, 1}) {
    X25519Key eph_pub{};
    eph_pub[0] = u;
    ASSERT_EQ(x25519(recipient.private_key, eph_pub), zero);
    Bytes salt(eph_pub.begin(), eph_pub.end());
    append(salt, ByteView(recipient.public_key.data(),
                          recipient.public_key.size()));
    const Bytes okm = hkdf(salt, ByteView(zero.data(), zero.size()),
                           bytes_of("p2panon-sealed-box-v1"), kChaChaKeySize);
    ChaChaKey key;
    std::memcpy(key.data(), okm.data(), key.size());
    Bytes forged(eph_pub.begin(), eph_pub.end());
    append(forged, aead_seal(key, ChaChaNonce{},
                             ByteView(eph_pub.data(), eph_pub.size()),
                             bytes_of("forged next hop")));
    EXPECT_FALSE(sealed_box_open(recipient, forged).has_value())
        << "u = " << static_cast<int>(u);
  }
}

TEST(KeyDirectoryTest, ProvisionRegistersAllNodes) {
  Rng rng(31);
  KeyDirectory directory;
  const auto pairs = directory.provision(16, rng);
  ASSERT_EQ(pairs.size(), 16u);
  for (NodeId node = 0; node < 16; ++node) {
    ASSERT_TRUE(directory.has_key(node));
    EXPECT_EQ(directory.public_key(node), pairs[node].public_key);
  }
  EXPECT_FALSE(directory.has_key(16));
  EXPECT_THROW(directory.public_key(16), std::out_of_range);
}

// --- segment authentication --------------------------------------------------------

ChaChaKey test_responder_key(std::uint8_t fill) {
  ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(fill + i);
  }
  return key;
}

TEST(SegmentAuthTest, KeyDerivationIsDeterministicAndKeyed) {
  const SegmentAuthKey a = derive_segment_auth_key(test_responder_key(1));
  const SegmentAuthKey b = derive_segment_auth_key(test_responder_key(1));
  const SegmentAuthKey c = derive_segment_auth_key(test_responder_key(2));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SegmentAuthTest, DigestIsTruncatedSha256) {
  const Bytes msg = {'s', 'e', 'g'};
  const auto full = Sha256::hash(msg);
  const MessageDigest digest = message_digest(msg);
  EXPECT_TRUE(std::equal(digest.begin(), digest.end(), full.begin()));
}

TEST(SegmentAuthTest, TagCoversEveryAuthenticatedField) {
  const SegmentAuthKey key = derive_segment_auth_key(test_responder_key(7));
  const Bytes segment = {1, 2, 3, 4, 5};
  const MessageDigest digest = message_digest(segment);
  const SegmentTag tag = segment_tag(key, 42, 3, 512, 2, 4, digest, segment);

  // Deterministic.
  EXPECT_TRUE(segment_tag_equal(
      tag, segment_tag(key, 42, 3, 512, 2, 4, digest, segment)));
  // Any authenticated field changing changes the tag: key, message id,
  // index, size, m, n, digest, segment bytes.
  const SegmentAuthKey other_key =
      derive_segment_auth_key(test_responder_key(8));
  EXPECT_FALSE(segment_tag_equal(
      tag, segment_tag(other_key, 42, 3, 512, 2, 4, digest, segment)));
  EXPECT_FALSE(segment_tag_equal(
      tag, segment_tag(key, 43, 3, 512, 2, 4, digest, segment)));
  EXPECT_FALSE(segment_tag_equal(
      tag, segment_tag(key, 42, 2, 512, 2, 4, digest, segment)));
  EXPECT_FALSE(segment_tag_equal(
      tag, segment_tag(key, 42, 3, 513, 2, 4, digest, segment)));
  EXPECT_FALSE(segment_tag_equal(
      tag, segment_tag(key, 42, 3, 512, 3, 4, digest, segment)));
  EXPECT_FALSE(segment_tag_equal(
      tag, segment_tag(key, 42, 3, 512, 2, 5, digest, segment)));
  MessageDigest flipped_digest = digest;
  flipped_digest[0] ^= 1;
  EXPECT_FALSE(segment_tag_equal(
      tag, segment_tag(key, 42, 3, 512, 2, 4, flipped_digest, segment)));
  Bytes flipped_segment = segment;
  flipped_segment[4] ^= 0x80;
  EXPECT_FALSE(segment_tag_equal(
      tag, segment_tag(key, 42, 3, 512, 2, 4, digest, flipped_segment)));
}

TEST(SegmentAuthTest, TagEqualIsExact) {
  SegmentTag a{};
  SegmentTag b{};
  EXPECT_TRUE(segment_tag_equal(a, b));
  b[kSegmentTagSize - 1] = 1;
  EXPECT_FALSE(segment_tag_equal(a, b));
}

}  // namespace
}  // namespace p2panon::crypto
