// The liveness-record codec that gossip and OneHop share, over the layout
// in net/liveness_wire.hpp.
//
// RecordWriter stores each record at its fixed offset in one buffer its
// owner reuses for every message. for_each_record checks the declared
// count against the length once and then hands over each record as it is
// read, so a receiver merges records without collecting them first.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "membership/liveness.hpp"
#include "net/liveness_wire.hpp"

namespace p2panon::membership {

class RecordWriter {
 public:
  /// Starts a message of `kind`; the previous message is gone.
  void begin(std::uint8_t kind) {
    count_ = 0;
    reserve_bytes(net::liveness_wire::kHeaderSize);
    buf_[net::liveness_wire::kKindOffset] = kind;
  }

  void add(NodeId subject, const LivenessInfo& info) {
    namespace wire = net::liveness_wire;
    const std::size_t at = wire::kHeaderSize + count_ * wire::kRecordSize;
    reserve_bytes(at + wire::kRecordSize);
    std::uint8_t* p = buf_.data() + at;
    store_u32be(p + wire::kSubjectOffset, subject);
    p[wire::kFlagsOffset] = info.alive ? 1 : 0;
    store_u64be(p + wire::kDtAliveOffset,
                static_cast<std::uint64_t>(info.dt_alive));
    store_u64be(p + wire::kDtSinceOffset,
                static_cast<std::uint64_t>(info.dt_since));
    ++count_;
  }

  std::size_t count() const { return count_; }

  /// Stores the record count and returns the message, which stays valid
  /// until the next begin().
  ByteView finish() {
    namespace wire = net::liveness_wire;
    store_u16be(buf_.data() + wire::kCountOffset,
                static_cast<std::uint16_t>(count_));
    return ByteView(buf_.data(),
                    wire::kHeaderSize + count_ * wire::kRecordSize);
  }

 private:
  void reserve_bytes(std::size_t size) {
    if (buf_.size() < size) buf_.resize(std::max(size, 2 * buf_.size()));
  }

  Bytes buf_;
  std::size_t count_ = 0;
};

/// Calls `visit(index, subject, info)` for each record of a
/// [kind][count u16be][records] message in wire order; `index` is the
/// record's position in the message. Returns false, having visited
/// nothing, when the message is shorter than its declared count.
///
/// Skips a record whose subject is not below `num_nodes`, or whose
/// dt_alive or dt_since does not fit a non-negative SimDuration. No honest
/// sender writes one, and a negative dt_since would win every later
/// freshness contest for its subject.
template <typename Visit>
bool for_each_record(ByteView msg, std::size_t num_nodes, Visit&& visit) {
  namespace wire = net::liveness_wire;
  if (msg.size() < wire::kHeaderSize) return false;
  const std::size_t count = load_u16be(msg.data() + wire::kCountOffset);
  if (count * wire::kRecordSize > msg.size() - wire::kHeaderSize) {
    return false;
  }
  const std::uint8_t* p = msg.data() + wire::kHeaderSize;
  for (std::size_t i = 0; i < count; ++i, p += wire::kRecordSize) {
    const NodeId subject = load_u32be(p + wire::kSubjectOffset);
    LivenessInfo info;
    info.alive = p[wire::kFlagsOffset] != 0;
    info.dt_alive =
        static_cast<SimDuration>(load_u64be(p + wire::kDtAliveOffset));
    info.dt_since =
        static_cast<SimDuration>(load_u64be(p + wire::kDtSinceOffset));
    if (subject >= num_nodes || info.dt_alive < 0 || info.dt_since < 0) {
      continue;
    }
    visit(i, subject, info);
  }
  return true;
}

}  // namespace p2panon::membership
