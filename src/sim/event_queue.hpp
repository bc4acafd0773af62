// Pending-event set for the discrete-event simulator.
//
// A binary min-heap keyed on (time, sequence number); the sequence number
// breaks ties so same-time events fire in scheduling order, which keeps runs
// deterministic. The heap is a vector under std::push_heap/std::pop_heap,
// so pop moves the earliest entry out rather than copying its callback.
// Cancellation is lazy: a cancelled id leaves a tombstone in the heap that
// is dropped when it surfaces, so cancel is O(1) and pop stays O(log n)
// amortized.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "obs/trace.hpp"

namespace p2panon::sim {

using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

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
  bool pending(EventId id) const { return live_.count(id) > 0; }

  bool empty() const { return live_.empty(); }
  std::size_t size() const { return live_.size(); }

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

  /// Drops all pending events.
  void clear();

  /// Total events ever scheduled (diagnostics).
  std::uint64_t scheduled_total() const { return next_id_ - 1; }

  /// Estimated heap footprint (heap entries incl. tombstones plus the
  /// live-id set) for the capacity byte census. An estimate: it counts
  /// entries, not the heap vector's spare capacity.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(heap_.size()) * sizeof(Entry) +
           static_cast<std::uint64_t>(live_.bucket_count()) * sizeof(void*) +
           static_cast<std::uint64_t>(live_.size()) *
               (sizeof(EventId) + 2 * sizeof(void*));
  }

 private:
  struct Entry {
    SimTime time;
    EventId id;
    Callback fn;
    obs::CorrelationId corr;
    obs::capacity::EventTypeId type;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  void drop_tombstone_head();

  std::vector<Entry> heap_;  // a heap under Later: front() is the earliest
  std::unordered_set<EventId> live_;  // scheduled, not yet fired or cancelled
  EventId next_id_ = 1;
};

}  // namespace p2panon::sim
