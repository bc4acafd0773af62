// Pending-event set for the discrete-event simulator.
//
// Events live in a slab of slots; a binary min-heap orders 24-byte keys
// (time, seq, slot). `seq` is the schedule counter, so same-time events fire
// in scheduling order, which keeps runs deterministic. An EventId packs a
// slot index with that slot's generation, which is bumped each time the
// slot is handed out, so an id whose event has fired or been cancelled never
// matches a later event in the same slot. Cancellation is lazy: it marks the
// slot dead and frees its callback, and the dead key is dropped when it
// surfaces, only then returning the slot to the free list. So cancel is
// O(1), pop stays O(log n) amortized, and the queue reuses its own storage
// (a callback's captures may still allocate).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "obs/trace.hpp"

namespace p2panon::sim {

using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;  // never issued: generations start at 1

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute time `when`. Returns a handle usable with
  /// cancel(). Events at equal times run in insertion order. The thread's
  /// current correlation id is captured into the entry so causal chains
  /// survive the trip through the queue (see obs/trace.hpp). `type` tags
  /// the event for the capacity loop profiler (obs/capacity): subsystems
  /// intern a type id once and pass it on every schedule; untyped events
  /// land in the profiler's catch-all bucket.
  EventId schedule(SimTime when, Callback fn,
                   obs::capacity::EventTypeId type =
                       obs::capacity::kUntypedEvent);

  /// Cancels a pending event. Returns true if the event was still pending;
  /// cancelling an already-fired or already-cancelled id is a no-op.
  bool cancel(EventId id);

  /// True if the id refers to an event that has neither fired nor been
  /// cancelled.
  bool pending(EventId id) const {
    const auto index = static_cast<std::uint32_t>(id);
    return index < slots_.size() && slots_[index].live &&
           slots_[index].generation == static_cast<std::uint32_t>(id >> 32);
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; kNeverTime when empty.
  SimTime next_time();

  /// Removes and returns the earliest pending event.
  /// Precondition: !empty().
  struct Ready {
    SimTime time;
    EventId id;
    Callback fn;
    obs::CorrelationId corr;
    obs::capacity::EventTypeId type;
  };
  Ready pop();

  /// Drops all pending events. Slot generations survive, so ids issued
  /// before the clear never match an event scheduled after it.
  void clear();

  /// Total events ever scheduled (diagnostics).
  std::uint64_t scheduled_total() const { return next_seq_ - 1; }

  /// Estimated footprint (heap keys incl. dead ones, the slot slab and the
  /// free list) for the capacity byte census. An estimate: it counts
  /// entries, not the vectors' spare capacity.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(heap_.size()) * sizeof(Key) +
           static_cast<std::uint64_t>(slots_.size()) * sizeof(Slot) +
           static_cast<std::uint64_t>(free_.size()) * sizeof(std::uint32_t);
  }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback fn;
    obs::CorrelationId corr = 0;
    std::uint32_t generation = 0;  // of the id last issued for this slot
    obs::capacity::EventTypeId type = obs::capacity::kUntypedEvent;
    bool live = false;  // scheduled, not yet fired or cancelled
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }
  void drop_dead_head();

  std::vector<Key> heap_;  // a heap under Later: front() is the earliest
  std::vector<Slot> slots_;  // each slot has at most one key in heap_
  std::vector<std::uint32_t> free_;  // slots with no key in heap_
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace p2panon::sim
