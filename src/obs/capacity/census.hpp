// Explicit byte census: a visitor the big per-node structures report
// their actual container footprints into, so "the latency matrix is
// O(N²)" becomes a number per subsystem and per node instead of a
// comment. Unlike the alloc-probe (which needs the counting hooks linked
// and attributes whatever happens to allocate), the census is a
// deterministic walk of known structures — same topology, same bytes —
// so it can live inside committed baselines and CI gates.
//
// Usage:
//   ByteCensus census;
//   environment.byte_census(census);     // each subsystem add()s entries
//   census.to_json(config.num_nodes);    // totals + bytes-per-node
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace p2panon::obs::capacity {

/// Container footprint helper: allocated capacity, not just size, because
/// capacity is what the process actually holds.
template <typename Vector>
std::uint64_t vector_bytes(const Vector& v) {
  return static_cast<std::uint64_t>(v.capacity()) *
         sizeof(typename Vector::value_type);
}

/// Node-based container footprint estimate (unordered_map/set): the bucket
/// array plus one heap node per element (value, next pointer, cached hash).
/// An estimate, not an exact heap measurement — but a deterministic one for
/// a given element count and stdlib, which is what the census needs.
template <typename Map>
std::uint64_t hash_map_bytes(const Map& m) {
  return static_cast<std::uint64_t>(m.bucket_count()) * sizeof(void*) +
         static_cast<std::uint64_t>(m.size()) *
             (sizeof(typename Map::value_type) + 2 * sizeof(void*));
}

struct CensusEntry {
  std::string subsystem;  // e.g. "latency_matrix", "gossip", "flow_log"
  std::string detail;     // e.g. "coordinates", "rumor_queues"
  std::uint64_t bytes = 0;
};

class ByteCensus {
 public:
  void add(std::string subsystem, std::string detail, std::uint64_t bytes);

  std::uint64_t total() const;
  std::uint64_t subsystem_total(const std::string& subsystem) const;

  /// (subsystem, bytes) pairs, one per distinct subsystem, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> subsystem_totals() const;

  /// One JSON object: total bytes, bytes-per-node, and the per-subsystem
  /// breakdown (each with its own bytes_per_node and detail list), every
  /// list sorted by name so documents diff cleanly.
  std::string to_json(std::size_t num_nodes) const;

 private:
  std::vector<CensusEntry> entries_;
};

}  // namespace p2panon::obs::capacity
