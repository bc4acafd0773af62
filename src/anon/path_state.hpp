// Relay-side cached path state with TTL (paper §4.3).
//
// Each relay on a path caches [P_{i-1}, sid_{i-1}, P_{i+1}, sid_i, R_i].
// Payload traffic refreshes the TTL; states orphaned by upstream failures
// expire and are reclaimed, which is the paper's answer to resource
// depletion from un-releasable paths.
//
// One PathStateTable exists per node. Forward traffic is looked up by the
// upstream stream id, reverse traffic by the downstream stream id.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "crypto/chacha20.hpp"

namespace p2panon::anon {

struct RelayEntry {
  NodeId upstream = kInvalidNode;
  StreamId upstream_sid = 0;
  NodeId downstream = kInvalidNode;  // next relay, or the responder for the
                                     // last relay; kInvalidNode at the
                                     // responder's own terminal entry
  StreamId downstream_sid = 0;
  crypto::ChaChaKey key{};           // R_i (R_{L+1} at the responder)
  bool last_relay = false;           // downstream is the responder
  bool at_responder = false;         // this is the responder's ⊥ entry
  SimTime expires = kNeverTime;
  std::uint64_t reverse_seq = 0;     // responder's reverse-nonce counter
};

class PathStateTable {
 public:
  explicit PathStateTable(Rng rng) : rng_(rng) {}

  /// Installs an entry, generating a fresh downstream stream id (unique
  /// within this node). Returns the downstream sid.
  StreamId install(RelayEntry entry, SimTime now, SimDuration ttl);

  /// Installs the responder's terminal entry keyed by the upstream sid
  /// (no downstream sid is generated).
  void install_terminal(RelayEntry entry, SimTime now, SimDuration ttl);

  RelayEntry* find_by_upstream(StreamId upstream_sid);
  RelayEntry* find_by_downstream(StreamId downstream_sid);

  /// Extends an entry's TTL (payload messages double as refreshes).
  void refresh(RelayEntry& entry, SimTime now, SimDuration ttl);

  /// Removes the entry with this upstream sid (explicit teardown).
  bool release_by_upstream(StreamId upstream_sid);

  /// Drops all entries whose TTL has passed. Returns how many.
  std::size_t expire(SimTime now);

  std::size_t size() const { return by_upstream_.size(); }

  /// Estimated heap footprint of both lookup maps (bucket arrays plus one
  /// heap node per entry) for the capacity byte census.
  std::uint64_t memory_bytes() const {
    return map_bytes(by_upstream_) + map_bytes(downstream_to_upstream_);
  }

 private:
  template <typename Map>
  static std::uint64_t map_bytes(const Map& m) {
    return static_cast<std::uint64_t>(m.bucket_count()) * sizeof(void*) +
           static_cast<std::uint64_t>(m.size()) *
               (sizeof(typename Map::value_type) + 2 * sizeof(void*));
  }
  StreamId fresh_sid();

  Rng rng_;
  std::unordered_map<StreamId, RelayEntry> by_upstream_;
  std::unordered_map<StreamId, StreamId> downstream_to_upstream_;
};

}  // namespace p2panon::anon
