// Onion construction and stripping (paper §4.1, §4.2).
//
// The OnionCodec builds and peels the two nested structures the protocols
// use:
//
//  * Path onions (§4.1): Path_i = <P_{i+1}, R_i, Path_{i+1}>_{PubKey_i},
//    terminated by a marker. Each relay peels one public-key layer and
//    learns only its successor and its symmetric key R_i.
//  * Payload onions (§4.2): the inner core <MID, Mp>_{R_{L+1}},
//    <R_{L+1}>_{PubKey_D} for the responder, wrapped in one symmetric
//    layer per relay: PayLoad_i = <PayLoad_{i+1}>_{R_i}. Relays strip
//    layers forward; on the reverse path they *add* layers, which the
//    initiator (knowing every R_i) strips all at once. The responder keeps
//    R_{L+1} in its terminal entry (§4.4), so once it has replied on a
//    path the session sends the serialized core in one wrap_layer under
//    R_{L+1} instead of a sealed box (a "keyed core", 32 bytes shorter).
//
// The format is written once: OnionFormat nests public-key boxes around
// the path-hop and payload-core serializations declared below and fixes
// both overheads (a box adds kSealedBoxOverhead bytes, a layer
// kAeadTagSize), and OnionCodec's copying layer ops wrap its in-place
// ones. The two codecs supply only a box and the two in-place layer ops:
//  * RealOnionCodec — X25519 sealed boxes + ChaCha20-Poly1305, the real
//    thing, used in examples, unit tests and the quickstart;
//  * FastOnionCodec — a box of 32 random filler bytes, a keystreamed body
//    and 16 zero bytes, and layers that XOR a non-cryptographic keystream
//    and append 16 zero bytes. Used by the statistical benches, where
//    millions of layer operations would otherwise dominate runtime. Every
//    size, and so every bandwidth number, is the real codec's by
//    construction.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/keys.hpp"
#include "crypto/segment_auth.hpp"

namespace p2panon::anon {

using RelayKey = crypto::ChaChaKey;  // the paper's R_i

/// One hop's plaintext inside a path onion.
struct PathHop {
  NodeId next = kInvalidNode;  // P_{i+1} (the responder for the last relay)
  RelayKey relay_key{};        // R_i
  bool last = false;           // Path_{i+1} == termination marker
};

/// The responder-facing core of a payload onion.
struct PayloadCore {
  /// auth_flags values. Any other flags byte fails parsing, and each shape
  /// has its own exact total size, so a single byte flip cannot turn one
  /// valid shape into the other.
  static constexpr std::uint8_t kAuthNone = 0;    // legacy core, no trailer
  static constexpr std::uint8_t kAuthTagged = 3;  // [flags][digest][tag]

  MessageId message_id = 0;
  std::uint32_t segment_index = 0;
  std::uint32_t original_size = 0;  // |M| so the responder can truncate
  std::uint16_t needed_segments = 1;  // the paper's out-of-band m
  std::uint16_t total_segments = 1;   // n, so the responder picks the codec
  Bytes segment;                    // Mp
  RelayKey responder_key{};         // R_{L+1}, for the reverse path

  // Corruption-resilience trailer (absent on the wire when auth_flags ==
  // kAuthNone, the paper's core). The digest is the
  // truncated SHA-256 of the whole message M; the tag authenticates this
  // segment plus every header field the decoder will trust (see
  // crypto/segment_auth.hpp).
  std::uint8_t auth_flags = kAuthNone;
  crypto::MessageDigest message_digest{};
  crypto::SegmentTag auth_tag{};
};

class OnionCodec {
 public:
  virtual ~OnionCodec() = default;

  // --- path onions (§4.1) ---

  /// Builds the nested path onion for `relays` terminating at `responder`.
  /// `relay_keys[i]` is R_i for relays[i]. Layer i is sealed to
  /// directory.public_key(relays[i]).
  virtual Bytes build_path_onion(const std::vector<NodeId>& relays,
                                 const std::vector<RelayKey>& relay_keys,
                                 NodeId responder,
                                 const crypto::KeyDirectory& directory,
                                 Rng& rng) const = 0;

  /// Relay-side peel: opens the outer layer with `self`'s keypair,
  /// returning this hop's info and the remaining onion (empty when last).
  struct PeeledPath {
    PathHop hop;
    Bytes rest;
  };
  virtual std::optional<PeeledPath> peel_path_onion(
      const crypto::KeyPair& self, ByteView onion) const = 0;

  // --- payload onions (§4.2) ---

  /// Seals the responder core with the responder's public key + R_{L+1}.
  virtual Bytes seal_payload_core(const PayloadCore& core,
                                  const crypto::X25519Key& responder_public,
                                  Rng& rng) const = 0;

  virtual std::optional<PayloadCore> open_payload_core(
      const crypto::KeyPair& responder, ByteView sealed) const = 0;

  /// One symmetric layer; `seq` must be unique per (key, direction). These
  /// copy `inner`/`outer` and run the in-place op on the copy, so their
  /// bytes are the in-place ops' bytes.
  virtual Bytes wrap_layer(const RelayKey& key, std::uint64_t seq,
                           ByteView inner) const;
  virtual std::optional<Bytes> unwrap_layer(const RelayKey& key,
                                            std::uint64_t seq,
                                            ByteView outer) const;

  /// In-place layer ops — the relay fast path. wrap grows `buf` by
  /// layer_overhead() and seals it in place; unwrap authenticates, strips
  /// the layer and shrinks `buf` (returning false with `buf` unchanged on
  /// failure). When `buf` has spare capacity (e.g. a BufferPool lease)
  /// neither op touches the heap.
  virtual void wrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                                   Bytes& buf) const = 0;
  virtual bool unwrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                                     Bytes& buf) const = 0;

  /// Per-layer ciphertext expansion in bytes (for bandwidth math).
  virtual std::size_t layer_overhead() const = 0;
  /// Sealed-core expansion over the serialized PayloadCore.
  virtual std::size_t core_overhead() const = 0;

  virtual std::string name() const = 0;
};

/// The onion format, over a codec's public-key box and in-place layer ops.
/// A path onion nests one box per relay around serialize_path_hop; a
/// sealed core is one box around serialize_payload_core.
class OnionFormat : public OnionCodec {
 public:
  Bytes build_path_onion(const std::vector<NodeId>& relays,
                         const std::vector<RelayKey>& relay_keys,
                         NodeId responder,
                         const crypto::KeyDirectory& directory,
                         Rng& rng) const final;
  std::optional<PeeledPath> peel_path_onion(const crypto::KeyPair& self,
                                            ByteView onion) const final;
  Bytes seal_payload_core(const PayloadCore& core,
                          const crypto::X25519Key& responder_public,
                          Rng& rng) const final;
  std::optional<PayloadCore> open_payload_core(
      const crypto::KeyPair& responder, ByteView sealed) const final;
  std::size_t layer_overhead() const final;
  std::size_t core_overhead() const final;

 private:
  /// Seals `plain` to `recipient` in a box core_overhead() bytes longer.
  virtual Bytes seal_box(const crypto::X25519Key& recipient, ByteView plain,
                         Rng& rng) const = 0;
  /// Opens a box sealed to `self`; nullopt when it does not open.
  virtual std::optional<Bytes> open_box(const crypto::KeyPair& self,
                                        ByteView box) const = 0;
};

/// X25519 sealed boxes and ChaCha20-Poly1305 layers.
class RealOnionCodec final : public OnionFormat {
 public:
  void wrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                           Bytes& buf) const override;
  bool unwrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                             Bytes& buf) const override;
  std::string name() const override { return "real"; }

 private:
  Bytes seal_box(const crypto::X25519Key& recipient, ByteView plain,
                 Rng& rng) const override;
  std::optional<Bytes> open_box(const crypto::KeyPair& self,
                                ByteView box) const override;
};

/// Size-faithful stand-in: keystream from splitmix64 instead of ChaCha20,
/// "boxes" keyed on the recipient's public key bytes instead of a DH, and
/// zero bytes where the tags go. NOT SECURE — simulation throughput only.
class FastOnionCodec final : public OnionFormat {
 public:
  void wrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                           Bytes& buf) const override;
  bool unwrap_layer_in_place(const RelayKey& key, std::uint64_t seq,
                             Bytes& buf) const override;
  std::string name() const override { return "fast"; }

 private:
  Bytes seal_box(const crypto::X25519Key& recipient, ByteView plain,
                 Rng& rng) const override;
  std::optional<Bytes> open_box(const crypto::KeyPair& self,
                                ByteView box) const override;
};

/// The format's serialization (exposed for tests).
Bytes serialize_path_hop(const PathHop& hop, ByteView rest);
std::optional<OnionCodec::PeeledPath> parse_path_hop(ByteView plain);
Bytes serialize_payload_core(const PayloadCore& core);
std::optional<PayloadCore> parse_payload_core(ByteView plain);

}  // namespace p2panon::anon
