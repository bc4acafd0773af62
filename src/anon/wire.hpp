// Wire layout of the anonymous channel (paper §4.1–§4.5): the one
// definition that the router's framing, the onion format's cores,
// Figure 4 and the tests all read.
//
// Every anon datagram is one frame, behind Demux's channel byte:
//
//   [type u8][sid u64][seq u64]?[class u8]?[body]
//
// kFrames gives each type's channel, whether it carries the layer seq and
// the shed class (the class only under a load-tracking OverloadPolicy; the
// paper's frames never carry it) and its fixed body. The plaintexts that
// the bodies carry under their layers:
//
//   path hop      [next u32][last u8][relay_key 32][rest of the onion]
//   payload core  [message_id u64][segment_index u32][original_size u32]
//                 [needed u16][total u16][responder_key 32][segment_len u32]
//                 [segment] then, if tagged, [flags u8][digest 16][tag 16]
//   reverse core  [kind u8][message_id u64][segment_index u32] then, for a
//                 response, [response_id u32][original_size u32]
//                 [needed u16][total u16][segment_len u32][segment]
//
// Integers are big-endian. A box (a sealed core, a path-onion layer) adds
// kBoxOverhead bytes and a symmetric layer kLayerOverhead, in both codecs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sealed_box.hpp"
#include "crypto/segment_auth.hpp"

namespace p2panon::anon::wire {

enum class FrameType : std::uint8_t {
  kConstruct = 1,
  kConstructAck = 2,
  kPayload = 3,
  kPayloadRev = 4,
  kTeardown = 5,
  kConstructPayload = 7,
  kBackpressure = 8,
  kPayloadKeyed = 9,
};

struct FrameSpec {
  bool reverse;            // rides kAnonReverse, not kAnonForward
  bool seq;                // carries the layer seq
  bool class_byte;         // carries the shed class under load tracking
  std::size_t fixed_body;  // body bytes it must hold at least
};

constexpr std::size_t kStatusSize = 1;  // ConstructAck, Backpressure body

/// Indexed by frame type; entries 0 and 6 are no frame.
inline constexpr FrameSpec kFrames[] = {
    // reverse  seq   class  fixed body    body
    {false, false, false, 0},           // (none)
    {false, false, false, 0},           // Construct: path onion
    {true, false, false, kStatusSize},  // ConstructAck: status, 1 = ok
    {false, true, true, 0},             // Payload: layered sealed core
    {true, true, false, 0},             // PayloadRev: layered reverse core
    {false, false, false, 0},           // Teardown: empty
    {false, false, false, 0},           // (none)
    {false, true, false, 0},            // ConstructPayload: see below
    {true, false, false, kStatusSize},  // Backpressure: shed class
    {false, true, true, 0},             // PayloadKeyed: core under R_{L+1}
};
constexpr std::size_t kFrameTypes = sizeof(kFrames) / sizeof(kFrames[0]);

constexpr const FrameSpec& spec(FrameType type) {
  return kFrames[static_cast<std::size_t>(type)];
}

/// Whether a type byte names a frame.
constexpr bool is_frame_type(std::uint8_t type) {
  return type != 0 && type != 6 && type < kFrameTypes;
}

/// The highest shed class (SegmentPriority::kControl).
constexpr std::uint8_t kMaxClass = 3;

constexpr std::size_t kSidOffset = 1;
constexpr std::size_t kSeqOffset = 9;
constexpr std::size_t kClassOffset = 17;
constexpr std::size_t kMaxHeaderSize = 18;

/// Header bytes of a `type` frame; `classed` under load tracking.
constexpr std::size_t header_size(FrameType type, bool classed) {
  if (!spec(type).seq) return kSeqOffset;
  return classed && spec(type).class_byte ? kMaxHeaderSize : kClassOffset;
}

struct Frame {
  FrameType type = FrameType::kConstruct;
  StreamId sid = 0;
  std::uint64_t seq = 0;            // 0 on a type without one
  std::optional<std::uint8_t> cls;  // set when the frame carries one
  ByteView body;
};

/// Appends a `type` frame's header to `out`; the seq and `cls` only where
/// the type carries them, `cls` only when set.
inline void write_header(Bytes& out, FrameType type, StreamId sid,
                         std::uint64_t seq, std::optional<std::uint8_t> cls) {
  out.push_back(static_cast<std::uint8_t>(type));
  put_u64be(out, sid);
  if (spec(type).seq) put_u64be(out, seq);
  if (spec(type).class_byte && cls.has_value()) out.push_back(*cls);
}

/// Reads a frame that arrived on the reverse (`reverse`) or the forward
/// channel; `classed` under load tracking. nullopt for an unknown type, a
/// type of the other channel, a frame shorter than its header and fixed
/// body, or a class byte past kMaxClass.
inline std::optional<Frame> read_frame(ByteView datagram, bool reverse,
                                       bool classed) {
  if (datagram.empty() || !is_frame_type(datagram[0])) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(datagram[0]);
  const FrameSpec& s = spec(frame.type);
  const std::size_t header = header_size(frame.type, classed);
  if (s.reverse != reverse || datagram.size() < header + s.fixed_body) {
    return std::nullopt;
  }
  frame.sid = get_u64be(datagram, kSidOffset);
  if (s.seq) frame.seq = get_u64be(datagram, kSeqOffset);
  if (classed && s.class_byte) {
    if (datagram[kClassOffset] > kMaxClass) return std::nullopt;
    frame.cls = datagram[kClassOffset];
  }
  frame.body = datagram.subspan(header);
  return frame;
}

constexpr std::size_t kLengthPrefixSize = 4;  // ConstructPayload's onion

/// A ConstructPayload body: [onion length u32][path onion][layered core].
inline void append_construct_payload(Bytes& out, ByteView onion,
                                     ByteView payload) {
  put_u32be(out, static_cast<std::uint32_t>(onion.size()));
  append(out, onion);
  append(out, payload);
}

/// The onion and the layered core of a ConstructPayload body; nullopt when
/// the length prefix is missing or overruns the body.
inline std::optional<std::pair<ByteView, ByteView>> split_construct_payload(
    ByteView body) {
  if (body.size() < kLengthPrefixSize) return std::nullopt;
  const std::size_t onion_len = get_u32be(body, 0);
  if (body.size() - kLengthPrefixSize < onion_len) return std::nullopt;
  return std::make_pair(body.subspan(kLengthPrefixSize, onion_len),
                        body.subspan(kLengthPrefixSize + onion_len));
}

constexpr std::size_t kHopLastOffset = 4;
constexpr std::size_t kHopKeyOffset = 5;
constexpr std::size_t kHopHeaderSize = kHopKeyOffset + crypto::kChaChaKeySize;

constexpr std::size_t kCoreIndexOffset = 8;
constexpr std::size_t kCoreOriginalSizeOffset = 12;
constexpr std::size_t kCoreNeededOffset = 16;
constexpr std::size_t kCoreTotalOffset = 18;
constexpr std::size_t kCoreKeyOffset = 20;
constexpr std::size_t kCoreSegmentLenOffset =
    kCoreKeyOffset + crypto::kChaChaKeySize;
constexpr std::size_t kCoreHeaderSize = kCoreSegmentLenOffset + 4;
constexpr std::size_t kCoreTrailerSize =
    1 + crypto::kMessageDigestSize + crypto::kSegmentTagSize;

constexpr std::size_t kRevMessageIdOffset = 1;
constexpr std::size_t kRevIndexOffset = 9;
constexpr std::size_t kRevHeaderSize = 13;  // an ack or a corrupt-nack
constexpr std::size_t kRevResponseIdOffset = 13;
constexpr std::size_t kRevOriginalSizeOffset = 17;
constexpr std::size_t kRevNeededOffset = 21;
constexpr std::size_t kRevTotalOffset = 23;
constexpr std::size_t kRevSegmentLenOffset = 25;
constexpr std::size_t kRevResponseHeaderSize = 29;

constexpr std::size_t kBoxOverhead = crypto::kSealedBoxOverhead;
constexpr std::size_t kLayerOverhead = crypto::kAeadTagSize;

/// Bytes of one path's Payload frames over its first `hops` hops (at most
/// `relays` + 1), for a sealed core of `sealed_core` bytes on a path of
/// `relays` relays, framed as the paper's and without the channel byte.
/// The frame leaves the initiator under one layer per relay and sheds one
/// at each relay.
constexpr std::size_t payload_path_bytes(std::size_t sealed_core,
                                         std::size_t relays,
                                         std::size_t hops) {
  std::size_t total = 0;
  for (std::size_t hop = 0; hop < hops; ++hop) {
    total += header_size(FrameType::kPayload, false) + sealed_core +
             (relays - hop) * kLayerOverhead;
  }
  return total;
}

}  // namespace p2panon::anon::wire
