// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace p2panon::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(30, [&] { fired.push_back(3); });
  queue.schedule(10, [&] { fired.push_back(1); });
  queue.schedule(20, [&] { fired.push_back(2); });
  while (!queue.empty()) {
    auto ready = queue.pop();
    ready.fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFiresInScheduleOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) queue.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  const EventId id = queue.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(queue.pending(id));
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.pending(id));
  EXPECT_FALSE(queue.cancel(id));  // double-cancel is a no-op
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_time(), kNeverTime);
}

TEST(EventQueueTest, CancelAfterFireIsNoOp) {
  EventQueue queue;
  const EventId id = queue.schedule(1, [] {});
  queue.pop().fn();
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue queue;
  const EventId a = queue.schedule(1, [] {});
  queue.schedule(2, [] {});
  EXPECT_EQ(queue.size(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.size(), 1u);
  queue.pop();
  EXPECT_TRUE(queue.empty());
}

// Scheduling and popping move the callback; neither copies it (a delivery
// event's callback holds the datagram's bytes).
TEST(EventQueueTest, PopMovesTheCallbackOut) {
  struct CountsCopies {
    int* copies;
    int* calls;
    CountsCopies(int* copies_out, int* calls_out)
        : copies(copies_out), calls(calls_out) {}
    CountsCopies(const CountsCopies& other)
        : copies(other.copies), calls(other.calls) {
      ++*copies;
    }
    CountsCopies(CountsCopies&&) = default;
    void operator()() const { ++*calls; }
  };
  EventQueue queue;
  int copies = 0;
  int calls = 0;
  for (int i = 0; i < 8; ++i) {
    queue.schedule(10 - i, CountsCopies(&copies, &calls));
  }
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(calls, 8);
  EXPECT_EQ(copies, 0);
}

// An id names one scheduling. Once its event has fired or been cancelled,
// it must not reach a later event that reuses the queue's storage for it.
TEST(EventQueueTest, StaleIdsNeverReachALaterEvent) {
  EventQueue queue;
  const EventId fired = queue.schedule(1, [] {});
  queue.pop();
  const EventId cancelled = queue.schedule(2, [] {});
  ASSERT_TRUE(queue.cancel(cancelled));
  EXPECT_EQ(queue.next_time(), kNeverTime);  // drops the cancelled entry

  std::vector<EventId> fresh;
  for (int i = 0; i < 4; ++i) fresh.push_back(queue.schedule(10 + i, [] {}));
  for (const EventId stale : {fired, cancelled}) {
    EXPECT_FALSE(queue.pending(stale));
    EXPECT_FALSE(queue.cancel(stale));
  }
  for (const EventId id : fresh) EXPECT_TRUE(queue.pending(id));
  EXPECT_EQ(queue.size(), 4u);
}

// Cancel frees the callback at once. One whose destructor schedules (and
// so grows the queue's storage) must leave the queue consistent.
TEST(EventQueueTest, CancelledCallbackMayScheduleFromItsDestructor) {
  struct SchedulesOnDestroy {
    SchedulesOnDestroy(EventQueue& q, std::vector<EventId>& ids)
        : queue(q), scheduled(ids) {}
    ~SchedulesOnDestroy() {
      for (int i = 0; i < 64; ++i) {
        scheduled.push_back(queue.schedule(100 + i, [] {}));
      }
    }
    EventQueue& queue;
    std::vector<EventId>& scheduled;
  };
  EventQueue queue;
  std::vector<EventId> scheduled;
  const EventId id = queue.schedule(
      10, [guard = std::make_shared<SchedulesOnDestroy>(queue, scheduled)] {});
  ASSERT_TRUE(queue.cancel(id));
  ASSERT_EQ(scheduled.size(), 64u);
  EXPECT_FALSE(queue.pending(id));
  for (const EventId fresh : scheduled) EXPECT_TRUE(queue.pending(fresh));
  EXPECT_EQ(queue.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(queue.pop().time, 100 + i);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, IdsIssuedBeforeClearStayDead) {
  EventQueue queue;
  std::vector<EventId> old;
  for (int i = 0; i < 3; ++i) old.push_back(queue.schedule(5 + i, [] {}));
  ASSERT_TRUE(queue.cancel(old[1]));
  queue.clear();
  EXPECT_TRUE(queue.empty());

  std::vector<EventId> fresh;
  for (int i = 0; i < 6; ++i) fresh.push_back(queue.schedule(1 + i, [] {}));
  for (const EventId id : old) {
    EXPECT_FALSE(queue.pending(id));
    EXPECT_FALSE(queue.cancel(id));
  }
  for (const EventId id : fresh) EXPECT_TRUE(queue.pending(id));
  EXPECT_EQ(queue.size(), 6u);
}

TEST(SimulatorTest, IdsIssuedBeforeResetStayDead) {
  Simulator simulator;
  const EventId fired = simulator.schedule_at(1, [] {});
  simulator.run();
  std::vector<EventId> old{fired};
  for (int i = 0; i < 3; ++i) {
    old.push_back(simulator.schedule_at(5 + i, [] {}));
  }
  simulator.reset();

  int count = 0;
  std::vector<EventId> fresh;
  for (int i = 0; i < 6; ++i) {
    fresh.push_back(simulator.schedule_at(1 + i, [&] { ++count; }));
  }
  for (const EventId id : old) {
    EXPECT_FALSE(simulator.pending(id));
    EXPECT_FALSE(simulator.cancel(id));
  }
  for (const EventId id : fresh) EXPECT_TRUE(simulator.pending(id));
  simulator.run();
  EXPECT_EQ(count, 6);
}

TEST(SimulatorTest, TimeAdvancesWithEvents) {
  Simulator simulator;
  SimTime seen = -1;
  simulator.schedule_at(100, [&] { seen = simulator.now(); });
  simulator.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(simulator.now(), 100);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int count = 0;
  simulator.schedule_at(50, [&] { ++count; });
  simulator.schedule_at(150, [&] { ++count; });
  simulator.run_until(100);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(simulator.now(), 100);  // clock lands on the deadline
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.run();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, ScheduleInPastThrows) {
  Simulator simulator;
  simulator.schedule_at(10, [] {});
  simulator.run();
  EXPECT_THROW(simulator.schedule_at(5, [] {}), std::invalid_argument);
  // Negative delays clamp instead.
  bool ran = false;
  simulator.schedule_after(-100, [&] { ran = true; });
  simulator.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StopInterruptsRun) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    simulator.schedule_at(i, [&] {
      ++count;
      if (count == 3) simulator.stop();
    });
  }
  simulator.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(simulator.pending_events(), 7u);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator simulator;
  std::vector<SimTime> times;
  std::function<void()> chain = [&] {
    times.push_back(simulator.now());
    if (times.size() < 5) simulator.schedule_after(10, chain);
  };
  simulator.schedule_at(0, chain);
  simulator.run();
  EXPECT_EQ(times, (std::vector<SimTime>{0, 10, 20, 30, 40}));
}

TEST(SimulatorTest, RunStepsBounded) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 5; ++i) simulator.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(simulator.run_steps(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, ResetClearsEverything) {
  Simulator simulator;
  simulator.schedule_at(10, [] {});
  simulator.run();
  simulator.schedule_at(20, [] {});
  simulator.reset();
  EXPECT_EQ(simulator.now(), 0);
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_EQ(simulator.executed_events(), 0u);
}

TEST(PeriodicTaskTest, FiresRepeatedly) {
  Simulator simulator;
  int count = 0;
  PeriodicTask task(simulator, 10, [&] { ++count; });
  task.start();
  simulator.run_until(55);
  EXPECT_EQ(count, 5);  // t = 10, 20, 30, 40, 50
}

TEST(PeriodicTaskTest, CancelStopsFiring) {
  Simulator simulator;
  int count = 0;
  PeriodicTask task(simulator, 10, [&] {
    ++count;
    if (count == 2) task.cancel();
  });
  task.start();
  simulator.run_until(1000);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(task.active());
}

TEST(PeriodicTaskTest, DestructorCancels) {
  Simulator simulator;
  int count = 0;
  {
    PeriodicTask task(simulator, 10, [&] { ++count; });
    task.start();
    simulator.run_until(25);
  }
  simulator.run_until(1000);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTaskTest, StartAtAbsoluteTime) {
  Simulator simulator;
  std::vector<SimTime> times;
  PeriodicTask task(simulator, 10, [&] { times.push_back(simulator.now()); });
  task.start_at(7);
  simulator.run_until(40);
  EXPECT_EQ(times, (std::vector<SimTime>{7, 17, 27, 37}));
}

}  // namespace
}  // namespace p2panon::sim
