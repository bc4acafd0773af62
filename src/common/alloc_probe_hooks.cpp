// Counting allocation hooks, opted into per-binary with
// `target_sources(<target> PRIVATE .../alloc_probe_hooks.cpp)`. Provides
// the strong definitions of the alloc_probe API plus global operator
// new/delete overrides that account for every heap allocation in the
// process — every standard form, including the aligned and nothrow
// variants, so neither the zero-alloc relay gate nor the byte accounting
// can be bypassed by an over-aligned or nothrow allocation path.
// Never part of a library: linking it from an object file guarantees the
// strong symbols are present without relying on archive member selection.
//
// Accounting scheme: each allocation is padded with a 32-byte header that
// records the malloc base pointer, the requested size, and the thread's
// current scope tag at allocation time. delete() reads the header back,
// so frees decrement the tag that allocated — correct even when a
// structure built inside `MemScope{"gossip"}` is destroyed from an
// untagged destructor. The header keeps the user pointer 16-byte aligned
// for plain news; over-aligned news pad further and re-align. All state
// below is constant-initialized so allocations during static init are
// accounted too.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/alloc_probe.hpp"

namespace {

using p2panon::alloc_probe::kMaxScopeName;
using p2panon::alloc_probe::kMaxScopes;

constexpr std::uint32_t kMagic = 0x70A10CEDu;
constexpr std::size_t kHeaderSlot = 32;  // keeps 16-byte user alignment

struct Header {
  void* base;          // pointer returned by malloc
  std::uint64_t size;  // requested bytes
  std::uint32_t tag;
  std::uint32_t magic;
};
static_assert(sizeof(Header) <= kHeaderSlot, "header must fit its slot");

struct TagSlot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> total_bytes{0};
  std::atomic<std::uint64_t> live_bytes{0};
  std::atomic<std::uint64_t> peak_bytes{0};
  char name[kMaxScopeName + 1] = {};
};

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_live_bytes{0};

TagSlot g_tags[kMaxScopes];
std::atomic<std::uint32_t> g_tag_count{1};  // slot 0 = untagged
std::atomic_flag g_tag_lock = ATOMIC_FLAG_INIT;

thread_local std::uint32_t t_current_tag = 0;

void raise_peak(std::atomic<std::uint64_t>& peak, std::uint64_t live) {
  std::uint64_t seen = peak.load(std::memory_order_relaxed);
  while (live > seen &&
         !peak.compare_exchange_weak(seen, live, std::memory_order_relaxed)) {
  }
}

void note_alloc(std::uint32_t tag, std::uint64_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(size, std::memory_order_relaxed);
  TagSlot& slot = g_tags[tag];
  slot.allocs.fetch_add(1, std::memory_order_relaxed);
  slot.total_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::uint64_t tag_live =
      slot.live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  raise_peak(slot.peak_bytes, tag_live);
}

void note_free(std::uint32_t tag, std::uint64_t size) {
  g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
  TagSlot& slot = g_tags[tag];
  slot.frees.fetch_add(1, std::memory_order_relaxed);
  slot.live_bytes.fetch_sub(size, std::memory_order_relaxed);
}

/// One allocation path for every operator-new form. `align` must be a
/// power of two >= 1; plain news pass alignof(std::max_align_t).
void* tracked_alloc(std::size_t size, std::size_t align) noexcept {
  if (align < 16) align = 16;
  const std::size_t extra = align > 16 ? align : 0;
  const std::size_t padded = size + kHeaderSlot + extra;
  if (padded < size) return nullptr;  // overflow
  void* base = std::malloc(padded != 0 ? padded : 1);
  if (base == nullptr) return nullptr;
  std::uintptr_t p = reinterpret_cast<std::uintptr_t>(base) + kHeaderSlot;
  p = (p + align - 1) & ~static_cast<std::uintptr_t>(align - 1);
  Header* h = reinterpret_cast<Header*>(p - kHeaderSlot);
  h->base = base;
  h->size = size;
  h->tag = t_current_tag < kMaxScopes ? t_current_tag : 0;
  h->magic = kMagic;
  note_alloc(h->tag, size);
  return reinterpret_cast<void*>(p);
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  Header* h = reinterpret_cast<Header*>(static_cast<char*>(p) - kHeaderSlot);
  if (h->magic != kMagic) {
    // Not one of ours (new/delete mismatch across an uninstrumented
    // boundary). Hand it straight to free, uncounted, as before.
    std::free(p);
    return;
  }
  h->magic = 0;  // double-delete of this block won't double-count
  note_free(h->tag < kMaxScopes ? h->tag : 0, h->size);
  std::free(h->base);
}

bool name_equals(const char* a, const char* b) {
  std::uint32_t i = 0;
  for (; a[i] != '\0' && b[i] != '\0'; ++i) {
    if (a[i] != b[i]) return false;
  }
  return a[i] == b[i];
}

std::uint32_t find_tag(const char* name) {
  const std::uint32_t count = g_tag_count.load(std::memory_order_acquire);
  for (std::uint32_t i = 1; i < count; ++i) {
    if (name_equals(g_tags[i].name, name)) return i;
  }
  return 0;
}

}  // namespace

namespace p2panon::alloc_probe {

bool active() { return true; }

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

std::uint32_t scope_id(const char* name) {
  if (name == nullptr || name[0] == '\0') return 0;
  const std::uint32_t found = find_tag(name);
  if (found != 0) return found;
  while (g_tag_lock.test_and_set(std::memory_order_acquire)) {
  }
  std::uint32_t id = find_tag(name);  // re-check under the lock
  if (id == 0) {
    const std::uint32_t count = g_tag_count.load(std::memory_order_relaxed);
    if (count < kMaxScopes) {
      TagSlot& slot = g_tags[count];
      std::uint32_t i = 0;
      for (; i < kMaxScopeName && name[i] != '\0'; ++i) slot.name[i] = name[i];
      slot.name[i] = '\0';
      g_tag_count.store(count + 1, std::memory_order_release);
      id = count;
    }
  }
  g_tag_lock.clear(std::memory_order_release);
  return id;
}

std::uint32_t set_scope(std::uint32_t id) {
  const std::uint32_t prev = t_current_tag;
  t_current_tag = id < kMaxScopes ? id : 0;
  return prev;
}

std::uint32_t scope_count() {
  return g_tag_count.load(std::memory_order_acquire);
}

const char* scope_name(std::uint32_t id) {
  if (id == 0) return "untagged";
  if (id >= g_tag_count.load(std::memory_order_acquire)) return "";
  return g_tags[id].name;
}

ScopeStats scope_stats(std::uint32_t id) {
  ScopeStats out;
  if (id >= g_tag_count.load(std::memory_order_acquire)) return out;
  const TagSlot& slot = g_tags[id];
  out.allocs = slot.allocs.load(std::memory_order_relaxed);
  out.frees = slot.frees.load(std::memory_order_relaxed);
  out.total_bytes = slot.total_bytes.load(std::memory_order_relaxed);
  out.live_bytes = slot.live_bytes.load(std::memory_order_relaxed);
  out.peak_bytes = slot.peak_bytes.load(std::memory_order_relaxed);
  return out;
}

ScopeStats scope_stats_by_name(const char* name) {
  if (name == nullptr || name[0] == '\0') return scope_stats(0);
  const std::uint32_t id = find_tag(name);
  return id != 0 ? scope_stats(id) : ScopeStats{};
}

}  // namespace p2panon::alloc_probe

void* operator new(std::size_t size) {
  void* p = tracked_alloc(size, alignof(std::max_align_t));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = tracked_alloc(size, alignof(std::max_align_t));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return tracked_alloc(size, alignof(std::max_align_t));
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return tracked_alloc(size, alignof(std::max_align_t));
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = tracked_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = tracked_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return tracked_alloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return tracked_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  tracked_free(p);
}
