#include "crypto/sealed_box.hpp"

#include <cstring>

#include "crypto/aead.hpp"
#include "crypto/hmac.hpp"

namespace p2panon::crypto {

namespace {

constexpr char kInfo[] = "p2panon-sealed-box-v1";

ChaChaKey derive_key(const X25519Key& shared, const X25519Key& eph_pub,
                     const X25519Key& recipient_pub) {
  Bytes salt;
  salt.reserve(2 * kX25519KeySize);
  append(salt, ByteView(eph_pub.data(), eph_pub.size()));
  append(salt, ByteView(recipient_pub.data(), recipient_pub.size()));
  const Bytes okm =
      hkdf(salt, ByteView(shared.data(), shared.size()),
           bytes_of(kInfo), kChaChaKeySize);
  ChaChaKey key;
  std::memcpy(key.data(), okm.data(), key.size());
  return key;
}

}  // namespace

Bytes sealed_box_seal(const X25519Key& recipient_public, ByteView plaintext,
                      Rng& rng) {
  KeyPair eph = KeyPair::generate(rng);
  const X25519Key shared = x25519(eph.private_key, recipient_public);
  const ChaChaKey key = derive_key(shared, eph.public_key, recipient_public);

  // Key is unique per box (fresh ephemeral), so a fixed nonce is safe.
  const ChaChaNonce nonce{};
  Bytes out;
  out.reserve(kX25519KeySize + plaintext.size() + kAeadTagSize);
  append(out, ByteView(eph.public_key.data(), eph.public_key.size()));
  const Bytes sealed = aead_seal(key, nonce,
                                 ByteView(eph.public_key.data(),
                                          eph.public_key.size()),
                                 plaintext);
  append(out, sealed);
  return out;
}

std::optional<Bytes> sealed_box_open(const KeyPair& recipient,
                                     ByteView sealed) {
  if (sealed.size() < kSealedBoxOverhead) return std::nullopt;
  X25519Key eph_pub;
  std::memcpy(eph_pub.data(), sealed.data(), eph_pub.size());
  const X25519Key shared = x25519(recipient.private_key, eph_pub);
  // A low-order eph_pub (u = 0, u = 1, ...) gives the all-zero secret for
  // every recipient, so anyone could derive the key and forge the box
  // (RFC 7748 section 6.1). The comparison runs over all 32 bytes.
  static constexpr X25519Key kZero{};
  if (constant_time_equal(ByteView(shared.data(), shared.size()),
                          ByteView(kZero.data(), kZero.size()))) {
    return std::nullopt;
  }
  const ChaChaKey key = derive_key(shared, eph_pub, recipient.public_key);
  const ChaChaNonce nonce{};
  return aead_open(key, nonce,
                   ByteView(eph_pub.data(), eph_pub.size()),
                   sealed.subspan(kX25519KeySize));
}

}  // namespace p2panon::crypto
