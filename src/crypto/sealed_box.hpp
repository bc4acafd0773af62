// Sealed boxes: anonymous public-key encryption.
//
// Each onion layer of a path-construction message is "encrypted with the
// relay's public key" in the paper. We realize that with an ephemeral
// X25519 handshake (libsodium's crypto_box_seal pattern):
//
//   seal(pk, m) = eph_pub || AEAD(HKDF(DH(eph_priv, pk), eph_pub || pk), m)
//
// The sender learns nothing it can replay (fresh ephemeral per box), and
// the box reveals nothing about the recipient beyond what pk-ownership
// implies — matching onion routing's requirements.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/keys.hpp"

namespace p2panon::crypto {

/// eph_pub(32) || ciphertext || tag(16) overhead per box.
constexpr std::size_t kSealedBoxOverhead = kX25519KeySize + 16;

/// Seals plaintext to `recipient_public`. `rng` supplies the ephemeral key.
Bytes sealed_box_seal(const X25519Key& recipient_public, ByteView plaintext,
                      Rng& rng);

/// Opens a sealed box with the recipient's keypair; nullopt on failure
/// (wrong key, truncation, tampering, or a low-order ephemeral key whose
/// shared secret is all zeros).
std::optional<Bytes> sealed_box_open(const KeyPair& recipient,
                                     ByteView sealed);

}  // namespace p2panon::crypto
