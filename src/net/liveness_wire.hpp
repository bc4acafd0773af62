// Wire layout of the membership layer's liveness records (paper §4.9): the
// one definition that the record codec (membership/record_codec.hpp) and
// the fault layer's in-flight record mutations both read. It lives under
// net/ because the fault layer sits below the membership library and does
// not link it.
//
// A record-bearing message on the gossip channel (gossip, sync response
// and repair; every OneHop kind) is
//
//   [kind u8][count u16be][count records]
//
// and Demux puts the channel byte in front of it on the wire. A record is
//
//   [subject u32be][flags u8][dt_alive u64be][dt_since u64be]    21 B
//
// flags is 1 for an alive observation and 0 for a leave. Both durations
// are microseconds; a decoder skips any record with a duration above
// kMaxDuration.
#pragma once

#include <cstddef>
#include <cstdint>

namespace p2panon::net::liveness_wire {

constexpr std::size_t kKindOffset = 0;
constexpr std::size_t kCountOffset = 1;
constexpr std::size_t kHeaderSize = 3;

constexpr std::size_t kSubjectOffset = 0;
constexpr std::size_t kFlagsOffset = 4;
constexpr std::size_t kDtAliveOffset = 5;
constexpr std::size_t kDtSinceOffset = 13;
constexpr std::size_t kRecordSize = 21;

/// The longest dt_alive or dt_since a decoder accepts, 2^60 us (about
/// 36,500 years). Far below 2^63, so a sum of two durations and a SimTime
/// (an age, a predictor's denominator) stays in int64.
constexpr std::uint64_t kMaxDuration = std::uint64_t{1} << 60;

}  // namespace p2panon::net::liveness_wire
