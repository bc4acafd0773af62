#include "obs/capacity/census.hpp"

#include <algorithm>
#include <map>

#include "obs/json.hpp"

namespace p2panon::obs::capacity {

void ByteCensus::add(std::string subsystem, std::string detail,
                     std::uint64_t bytes) {
  entries_.push_back(
      CensusEntry{std::move(subsystem), std::move(detail), bytes});
}

std::uint64_t ByteCensus::total() const {
  std::uint64_t sum = 0;
  for (const CensusEntry& entry : entries_) sum += entry.bytes;
  return sum;
}

std::uint64_t ByteCensus::subsystem_total(const std::string& subsystem) const {
  std::uint64_t sum = 0;
  for (const CensusEntry& entry : entries_) {
    if (entry.subsystem == subsystem) sum += entry.bytes;
  }
  return sum;
}

std::vector<std::pair<std::string, std::uint64_t>>
ByteCensus::subsystem_totals() const {
  std::map<std::string, std::uint64_t> totals;
  for (const CensusEntry& entry : entries_) {
    totals[entry.subsystem] += entry.bytes;
  }
  return {totals.begin(), totals.end()};
}

std::string ByteCensus::to_json(std::size_t num_nodes) const {
  const double nodes = num_nodes > 0 ? static_cast<double>(num_nodes) : 1.0;
  const std::uint64_t total_bytes = total();
  std::string out = "{\"total_bytes\":" + std::to_string(total_bytes);
  out += ",\"num_nodes\":" + std::to_string(num_nodes);
  out += ",\"bytes_per_node\":" +
         std::to_string(static_cast<double>(total_bytes) / nodes);
  out += ",\"subsystems\":[";
  bool first = true;
  for (const auto& [subsystem, bytes] : subsystem_totals()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + json_escape(subsystem) + '"';
    out += ",\"bytes\":" + std::to_string(bytes);
    out += ",\"bytes_per_node\":" +
           std::to_string(static_cast<double>(bytes) / nodes);
    out += ",\"details\":[";
    // Details of one subsystem, in a deterministic (sorted) order.
    std::vector<const CensusEntry*> details;
    for (const CensusEntry& entry : entries_) {
      if (entry.subsystem == subsystem) details.push_back(&entry);
    }
    std::sort(details.begin(), details.end(),
              [](const CensusEntry* a, const CensusEntry* b) {
                return a->detail < b->detail;
              });
    bool first_detail = true;
    for (const CensusEntry* entry : details) {
      if (!first_detail) out += ',';
      first_detail = false;
      out += "{\"name\":\"" + json_escape(entry->detail) + '"';
      out += ",\"bytes\":" + std::to_string(entry->bytes) + '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace p2panon::obs::capacity
