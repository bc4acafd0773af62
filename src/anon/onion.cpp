#include "anon/onion.hpp"

#include <cstring>
#include <stdexcept>

#include "anon/wire.hpp"
#include "crypto/aead.hpp"
#include "crypto/sealed_box.hpp"

namespace p2panon::anon {

// --- copying layer ops ------------------------------------------------------------

Bytes OnionCodec::wrap_layer(const RelayKey& key, std::uint64_t seq,
                             ByteView inner) const {
  Bytes out;
  out.reserve(inner.size() + layer_overhead());
  out.assign(inner.begin(), inner.end());
  wrap_layer_in_place(key, seq, out);
  return out;
}

std::optional<Bytes> OnionCodec::unwrap_layer(const RelayKey& key,
                                              std::uint64_t seq,
                                              ByteView outer) const {
  Bytes out(outer.begin(), outer.end());
  if (!unwrap_layer_in_place(key, seq, out)) return std::nullopt;
  return out;
}

// --- serialization ---------------------------------------------------------------

Bytes serialize_path_hop(const PathHop& hop, ByteView rest) {
  Bytes out;
  out.reserve(wire::kHopHeaderSize + rest.size());
  put_u32be(out, hop.next);
  out.push_back(hop.last ? 1 : 0);
  append(out, ByteView(hop.relay_key.data(), hop.relay_key.size()));
  append(out, rest);
  return out;
}

std::optional<OnionCodec::PeeledPath> parse_path_hop(ByteView plain) {
  if (plain.size() < wire::kHopHeaderSize) return std::nullopt;
  OnionCodec::PeeledPath out;
  out.hop.next = get_u32be(plain, 0);
  const std::uint8_t last = plain[wire::kHopLastOffset];
  if (last > 1) return std::nullopt;
  out.hop.last = last == 1;
  std::memcpy(out.hop.relay_key.data(), plain.data() + wire::kHopKeyOffset,
              out.hop.relay_key.size());
  const ByteView rest = plain.subspan(wire::kHopHeaderSize);
  out.rest.assign(rest.begin(), rest.end());
  if (out.hop.last && !out.rest.empty()) return std::nullopt;
  if (!out.hop.last && out.rest.empty()) return std::nullopt;
  return out;
}

Bytes serialize_payload_core(const PayloadCore& core) {
  Bytes out;
  out.reserve(wire::kCoreHeaderSize + core.segment.size() +
              (core.auth_flags != PayloadCore::kAuthNone
                   ? wire::kCoreTrailerSize
                   : 0));
  put_u64be(out, core.message_id);
  put_u32be(out, core.segment_index);
  put_u32be(out, core.original_size);
  put_u16be(out, core.needed_segments);
  put_u16be(out, core.total_segments);
  append(out, ByteView(core.responder_key.data(), core.responder_key.size()));
  put_u32be(out, static_cast<std::uint32_t>(core.segment.size()));
  append(out, core.segment);
  // Auth trailer: appended after the segment so a legacy core's bytes are
  // untouched. Its length is cross-checked against the exact total size at
  // parse time.
  if (core.auth_flags != PayloadCore::kAuthNone) {
    out.push_back(core.auth_flags);
    append(out, ByteView(core.message_digest.data(),
                         core.message_digest.size()));
    append(out, ByteView(core.auth_tag.data(), core.auth_tag.size()));
  }
  return out;
}

std::optional<PayloadCore> parse_payload_core(ByteView plain) {
  if (plain.size() < wire::kCoreHeaderSize) return std::nullopt;
  PayloadCore core;
  core.message_id = get_u64be(plain, 0);
  core.segment_index = get_u32be(plain, wire::kCoreIndexOffset);
  core.original_size = get_u32be(plain, wire::kCoreOriginalSizeOffset);
  core.needed_segments = get_u16be(plain, wire::kCoreNeededOffset);
  core.total_segments = get_u16be(plain, wire::kCoreTotalOffset);
  std::memcpy(core.responder_key.data(), plain.data() + wire::kCoreKeyOffset,
              core.responder_key.size());
  const std::size_t seg_len = get_u32be(plain, wire::kCoreSegmentLenOffset);
  // Two valid shapes, each with an exact total size: legacy (no trailer)
  // and tagged trailer, whose flags byte must read kAuthTagged. A core of
  // any other size, or a tagged-size core with any other flags byte, fails
  // parsing.
  const std::size_t trailer = wire::kCoreHeaderSize + seg_len;
  if (plain.size() == trailer + wire::kCoreTrailerSize) {
    if (plain[trailer] != PayloadCore::kAuthTagged) return std::nullopt;
    core.auth_flags = PayloadCore::kAuthTagged;
    std::memcpy(core.message_digest.data(), plain.data() + trailer + 1,
                core.message_digest.size());
    std::memcpy(core.auth_tag.data(),
                plain.data() + trailer + 1 + core.message_digest.size(),
                core.auth_tag.size());
  } else if (plain.size() != trailer) {
    return std::nullopt;
  }
  // Semantic validation, not just framing: every honestly serialized core
  // satisfies the erasure layer's 1 <= m <= n <= 255 and indexes within n.
  // The statistical codec can hand us garbage that survives the length
  // check, and make_codec throws on out-of-range parameters.
  if (core.needed_segments == 0 ||
      core.needed_segments > core.total_segments ||
      core.total_segments > 255 ||
      core.segment_index >= core.total_segments) {
    return std::nullopt;
  }
  const ByteView seg = plain.subspan(wire::kCoreHeaderSize, seg_len);
  core.segment.assign(seg.begin(), seg.end());
  return core;
}

// --- OnionFormat -----------------------------------------------------------------

Bytes OnionFormat::build_path_onion(const std::vector<NodeId>& relays,
                                    const std::vector<RelayKey>& relay_keys,
                                    NodeId responder,
                                    const crypto::KeyDirectory& directory,
                                    Rng& rng) const {
  if (relays.empty() || relays.size() != relay_keys.size()) {
    throw std::invalid_argument("build_path_onion: bad relay/key vectors");
  }
  Bytes blob;  // Path_{i+1}, starts as the termination marker (empty)
  for (std::size_t i = relays.size(); i-- > 0;) {
    PathHop hop;
    hop.last = (i + 1 == relays.size());
    hop.next = hop.last ? responder : relays[i + 1];
    hop.relay_key = relay_keys[i];
    blob = seal_box(directory.public_key(relays[i]),
                    serialize_path_hop(hop, blob), rng);
  }
  return blob;
}

std::optional<OnionCodec::PeeledPath> OnionFormat::peel_path_onion(
    const crypto::KeyPair& self, ByteView onion) const {
  const auto plain = open_box(self, onion);
  if (!plain.has_value()) return std::nullopt;
  return parse_path_hop(*plain);
}

Bytes OnionFormat::seal_payload_core(const PayloadCore& core,
                                     const crypto::X25519Key& responder_public,
                                     Rng& rng) const {
  return seal_box(responder_public, serialize_payload_core(core), rng);
}

std::optional<PayloadCore> OnionFormat::open_payload_core(
    const crypto::KeyPair& responder, ByteView sealed) const {
  const auto plain = open_box(responder, sealed);
  if (!plain.has_value()) return std::nullopt;
  return parse_payload_core(*plain);
}

std::size_t OnionFormat::layer_overhead() const { return wire::kLayerOverhead; }

std::size_t OnionFormat::core_overhead() const { return wire::kBoxOverhead; }

// --- RealOnionCodec ---------------------------------------------------------------

Bytes RealOnionCodec::seal_box(const crypto::X25519Key& recipient,
                               ByteView plain, Rng& rng) const {
  return crypto::sealed_box_seal(recipient, plain, rng);
}

std::optional<Bytes> RealOnionCodec::open_box(const crypto::KeyPair& self,
                                              ByteView box) const {
  return crypto::sealed_box_open(self, box);
}

void RealOnionCodec::wrap_layer_in_place(const RelayKey& key,
                                         std::uint64_t seq,
                                         Bytes& buf) const {
  buf.resize(buf.size() + crypto::kAeadTagSize);
  crypto::aead_seal_into(key, crypto::nonce_from_seq(seq), {}, buf);
}

bool RealOnionCodec::unwrap_layer_in_place(const RelayKey& key,
                                           std::uint64_t seq,
                                           Bytes& buf) const {
  if (!crypto::aead_open_into(key, crypto::nonce_from_seq(seq), {}, buf)) {
    return false;
  }
  buf.resize(buf.size() - crypto::kAeadTagSize);
  return true;
}

// --- FastOnionCodec ---------------------------------------------------------------
//
// Sealed-box and AEAD framing with a splitmix64 keystream in place of the
// cipher, so the statistical benches spend their time in the protocol.

namespace {

std::uint64_t key_seed(ByteView key_material) {
  std::uint64_t seed = 0x243f6a8885a308d3ULL;
  for (std::size_t i = 0; i < key_material.size(); ++i) {
    seed = seed * 0x100000001b3ULL + key_material[i];
  }
  return seed;
}

// Keystream byte 8k + b is byte b of the k-th splitmix64 word, little end
// first, so whole words XOR through a little-endian load and store.
void xor_keystream(std::uint64_t seed, MutableByteView data) {
  std::uint64_t state = seed;
  std::uint8_t* p = data.data();
  std::size_t left = data.size();
  for (; left >= 8; p += 8, left -= 8) {
    store_u64le(p, load_u64le(p) ^ splitmix64(state));
  }
  if (left == 0) return;
  const std::uint64_t word = splitmix64(state);
  for (std::size_t b = 0; b < left; ++b) {
    p[b] ^= static_cast<std::uint8_t>(word >> (8 * b));
  }
}

}  // namespace

Bytes FastOnionCodec::seal_box(const crypto::X25519Key& recipient,
                               ByteView plain, Rng& rng) const {
  // 32 random bytes where the ephemeral key goes, the body, 16 zero bytes
  // where the tag goes.
  Bytes box;
  box.reserve(plain.size() + crypto::kSealedBoxOverhead);
  box.resize(crypto::kX25519KeySize);
  rng.fill(box.data(), box.size());
  append(box, plain);
  xor_keystream(key_seed(recipient),
                MutableByteView(box).subspan(crypto::kX25519KeySize));
  box.resize(box.size() + crypto::kAeadTagSize, 0);
  return box;
}

std::optional<Bytes> FastOnionCodec::open_box(const crypto::KeyPair& self,
                                              ByteView box) const {
  if (box.size() < crypto::kSealedBoxOverhead) return std::nullopt;
  Bytes plain(box.begin() + crypto::kX25519KeySize,
              box.end() - crypto::kAeadTagSize);
  xor_keystream(key_seed(self.public_key), plain);
  return plain;
}

void FastOnionCodec::wrap_layer_in_place(const RelayKey& key,
                                         std::uint64_t seq,
                                         Bytes& buf) const {
  xor_keystream(key_seed(key) ^ seq, buf);
  buf.resize(buf.size() + crypto::kAeadTagSize, 0);
}

bool FastOnionCodec::unwrap_layer_in_place(const RelayKey& key,
                                           std::uint64_t seq,
                                           Bytes& buf) const {
  if (buf.size() < crypto::kAeadTagSize) return false;
  buf.resize(buf.size() - crypto::kAeadTagSize);
  xor_keystream(key_seed(key) ^ seq, buf);
  return true;
}

}  // namespace p2panon::anon
