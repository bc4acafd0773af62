// Heap-allocation probe for zero-allocation assertions and per-subsystem
// memory accounting.
//
// Production binaries link only the weak no-op definitions (via
// p2panon_common) and pay nothing. Tests and benches that want to assert
// "this path performs zero heap allocations" or attribute live/peak bytes
// to subsystems add `src/common/alloc_probe_hooks.cpp` to their own
// sources (`target_sources(<target> PRIVATE ...)`), which provides strong
// definitions plus counting global operator new/delete overrides — all
// forms, including the aligned and nothrow variants, so accounting cannot
// be bypassed by over-aligned allocations — for the whole binary.
//
// Two layers of accounting:
//   * process totals: allocations and live bytes;
//   * scope tags: a thread-local subsystem tag set by `MemScope`, stamped
//     into every allocation at new() time and read back at delete() time,
//     so frees are attributed to the scope that allocated (not the scope
//     that happened to be active at free time). Each tag accumulates
//     live/peak/total bytes and alloc/free counts.
//
// Measure a region by differencing allocations()/live_bytes() around it,
// or a subsystem by differencing scope_stats() around a MemScope.
#pragma once

#include <cstdint>

namespace p2panon::alloc_probe {

/// True when the counting hooks are linked into this binary.
bool active();

/// Heap allocations (operator new calls) observed so far; 0 when inactive.
std::uint64_t allocations();

/// Requested bytes currently live (allocated, not yet freed).
std::uint64_t live_bytes();

/// Fixed tag table: tag 0 is the implicit "untagged" scope; scope_id()
/// interning beyond the table falls back to 0 rather than failing.
constexpr std::uint32_t kMaxScopes = 64;
constexpr std::uint32_t kMaxScopeName = 47;

struct ScopeStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t total_bytes = 0;  // cumulative requested bytes
  std::uint64_t live_bytes = 0;   // allocated under this tag, not yet freed
  std::uint64_t peak_bytes = 0;   // high-water mark of live_bytes
};

/// Interns `name` (copied, truncated to kMaxScopeName chars) and returns
/// its tag id; repeated calls with the same name return the same id.
/// Returns 0 (untagged) when inactive or when the table is full.
std::uint32_t scope_id(const char* name);

/// Sets this thread's current tag; returns the previous one.
std::uint32_t set_scope(std::uint32_t id);

/// Number of interned tags, the untagged slot included (>= 1 when active).
std::uint32_t scope_count();

/// Name of a tag id ("untagged" for 0, "" for out-of-range ids).
const char* scope_name(std::uint32_t id);

/// Accounting for one tag; zeroes when inactive or out of range.
ScopeStats scope_stats(std::uint32_t id);

/// Convenience: scope_stats(scope_id(name)) without interning a new tag
/// when `name` was never used.
ScopeStats scope_stats_by_name(const char* name);

/// RAII subsystem tag: every heap allocation on this thread inside the
/// scope is attributed to `name`. Nests — the destructor restores the
/// enclosing tag. Free of the probe entirely when the hooks are not
/// linked (scope_id and set_scope collapse to returning 0).
class MemScope {
 public:
  explicit MemScope(const char* name) : prev_(set_scope(scope_id(name))) {}
  ~MemScope() { set_scope(prev_); }
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

 private:
  std::uint32_t prev_;
};

}  // namespace p2panon::alloc_probe
