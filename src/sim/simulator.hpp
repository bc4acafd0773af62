// Discrete-event simulator core.
//
// Single-threaded event loop over an EventQueue. The simulator owns virtual
// time: `now()` only advances when an event fires. All substrates (churn,
// transport, gossip, protocols) schedule callbacks here; nothing in the
// system observes wall-clock time.
//
// Typical use:
//   Simulator simulator;
//   simulator.schedule_after(10 * kSecond, [&] { ... });
//   simulator.run_until(2 * kHour);
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.hpp"
#include "sim/event_queue.hpp"

namespace p2panon::sim {

class Simulator : public Clock {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const override { return now_; }

  /// Schedules at an absolute virtual time; `when` must be >= now().
  /// `type` tags the event for the capacity loop profiler; untyped
  /// events fall into the profiler's catch-all bucket.
  EventId schedule_at(SimTime when, EventQueue::Callback fn,
                      obs::capacity::EventTypeId type =
                          obs::capacity::kUntypedEvent);

  /// Schedules `delay` from now; negative delays clamp to now.
  EventId schedule_after(SimDuration delay, EventQueue::Callback fn,
                         obs::capacity::EventTypeId type =
                             obs::capacity::kUntypedEvent);

  bool cancel(EventId id) { return queue_.cancel(id); }
  bool pending(EventId id) const { return queue_.pending(id); }

  /// Runs events until the queue drains or stop() is called.
  void run();

  /// Runs events with time <= deadline; afterwards now() == deadline unless
  /// stopped earlier. Events scheduled beyond the deadline stay pending.
  void run_until(SimTime deadline);

  /// Runs at most `max_events` events. Returns the number executed.
  std::size_t run_steps(std::size_t max_events);

  /// Requests the run loop to return after the current event.
  void stop() { stopped_ = true; }

  bool idle() { return queue_.next_time() == kNeverTime; }
  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }
  /// Events ever scheduled; scheduled - executed - pending = cancellations
  /// (timer churn), which the obs stats sampler reports.
  std::uint64_t scheduled_total() const { return queue_.scheduled_total(); }

  /// Estimated event-queue heap footprint (capacity byte census).
  std::uint64_t queue_memory_bytes() const { return queue_.memory_bytes(); }

  /// Clears all pending events and resets time to zero.
  void reset();

  /// Attaches (or detaches, with nullptr) the capacity loop profiler.
  /// The profiler is passive — it only reads wall clocks around event
  /// callbacks — so attaching it never changes simulated outcomes; the
  /// default (null) pays one branch per event. Not owned; must outlive
  /// the run.
  void set_profiler(obs::capacity::LoopProfiler* profiler) {
    profiler_ = profiler;
  }
  obs::capacity::LoopProfiler* profiler() const { return profiler_; }

 private:
  bool step();  // fires one event; false when queue empty

  EventQueue queue_;
  SimTime now_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  obs::capacity::LoopProfiler* profiler_ = nullptr;
};

/// Repeating timer helper: reschedules itself every `interval` until
/// cancelled or its owner destroys it. The callback may call cancel().
class PeriodicTask {
 public:
  PeriodicTask(Simulator& simulator, SimDuration interval,
               std::function<void()> fn,
               obs::capacity::EventTypeId type =
                   obs::capacity::kUntypedEvent);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();                 // first fire after one interval
  void start_at(SimTime when);  // first fire at an absolute time
  void cancel();
  bool active() const { return event_ != kInvalidEventId; }

 private:
  void fire();

  Simulator& simulator_;
  SimDuration interval_;
  std::function<void()> fn_;
  obs::capacity::EventTypeId type_;
  EventId event_ = kInvalidEventId;
};

}  // namespace p2panon::sim
