// The liveness-record codec that gossip and OneHop share, over the layout
// in net/liveness_wire.hpp.
//
// RecordWriter stores each record at its fixed offset in one buffer its
// owner reuses for every message. for_each_record checks the declared
// count against the length once and then hands over each record as it is
// read, so a receiver merges records without collecting them first;
// merge_records does that merge into a NodeCache.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "membership/liveness.hpp"
#include "membership/node_cache.hpp"
#include "net/liveness_wire.hpp"

namespace p2panon::membership {

class RecordWriter {
 public:
  /// Starts a message of `kind` with room for `max_records` records; the
  /// previous message is gone.
  void begin(std::uint8_t kind, std::size_t max_records) {
    namespace wire = net::liveness_wire;
    count_ = 0;
    max_records_ = max_records;
    const std::size_t size =
        wire::kHeaderSize + max_records * wire::kRecordSize;
    if (buf_.size() < size) buf_.resize(std::max(size, 2 * buf_.size()));
    buf_[wire::kKindOffset] = kind;
  }

  /// Appends a record; at most begin()'s `max_records` per message.
  void add(NodeId subject, const LivenessInfo& info) {
    namespace wire = net::liveness_wire;
    assert(count_ < max_records_);
    std::uint8_t* p =
        buf_.data() + wire::kHeaderSize + count_ * wire::kRecordSize;
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
  Bytes buf_;
  std::size_t count_ = 0;
  std::size_t max_records_ = 0;
};

/// Calls `visit(index, subject, info)` for each record of a
/// [kind][count u16be][records] message in wire order; `index` is the
/// record's position in the message. Returns false, having visited
/// nothing, when the message is shorter than its declared count.
///
/// Skips a record whose subject is not below `num_nodes`, or whose
/// dt_alive or dt_since exceeds liveness_wire::kMaxDuration. No honest
/// sender writes one: read as a SimDuration, a raw value of 2^63 or more
/// is negative and would win every later freshness contest for its
/// subject, and a huge one would overflow the cache's age arithmetic.
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
    const std::uint64_t dt_alive = load_u64be(p + wire::kDtAliveOffset);
    const std::uint64_t dt_since = load_u64be(p + wire::kDtSinceOffset);
    if (subject >= num_nodes || dt_alive > wire::kMaxDuration ||
        dt_since > wire::kMaxDuration) {
      continue;
    }
    LivenessInfo info;
    info.alive = p[wire::kFlagsOffset] != 0;
    info.dt_alive = static_cast<SimDuration>(dt_alive);
    info.dt_since = static_cast<SimDuration>(dt_since);
    visit(i, subject, info);
  }
  return true;
}

/// Merges each record of a received message into `cache`, the cache of
/// node `self` (a record about `self` is skipped), and then calls
/// `visit(subject, info, merged)`. `direct(index, subject, info)` says
/// whether a record is a first-hand observation of its subject. The merge
/// tallies reach cache.merge_stats() once, after the last record. Returns
/// for_each_record's result.
template <typename Direct, typename Visit>
bool merge_records(ByteView msg, NodeCache& cache, NodeId self, SimTime now,
                   Direct&& direct, Visit&& visit) {
  NodeCache::MergeStats tally;
  const bool fits = for_each_record(
      msg, cache.capacity(),
      [&](std::size_t index, NodeId subject, const LivenessInfo& info) {
        if (subject == self) return;
        visit(subject, info,
              cache.merge(subject, info, direct(index, subject, info), now,
                          tally));
      });
  cache.add_tally(tally);
  return fits;
}

}  // namespace p2panon::membership
