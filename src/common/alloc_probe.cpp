#include "common/alloc_probe.hpp"

// Weak no-op fallbacks: binaries that do not opt into the counting hooks
// (src/common/alloc_probe_hooks.cpp) see an inactive probe — every query
// returns zero and MemScope costs two calls that collapse to constants.
// The hooks file provides strong definitions that win at link time.

namespace p2panon::alloc_probe {

__attribute__((weak)) bool active() { return false; }

__attribute__((weak)) std::uint64_t allocations() { return 0; }

__attribute__((weak)) std::uint64_t live_bytes() { return 0; }

__attribute__((weak)) std::uint32_t scope_id(const char*) { return 0; }

__attribute__((weak)) std::uint32_t set_scope(std::uint32_t) { return 0; }

__attribute__((weak)) std::uint32_t scope_count() { return 0; }

__attribute__((weak)) const char* scope_name(std::uint32_t) { return ""; }

__attribute__((weak)) ScopeStats scope_stats(std::uint32_t) { return {}; }

__attribute__((weak)) ScopeStats scope_stats_by_name(const char*) {
  return {};
}

}  // namespace p2panon::alloc_probe
