#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace p2panon::sim {

EventId EventQueue::schedule(SimTime when, Callback fn,
                             obs::capacity::EventTypeId type) {
  const EventId id = next_id_++;
  heap_.push_back(
      Entry{when, id, std::move(fn), obs::current_correlation(), type});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  live_.insert(id);
  return id;
}

bool EventQueue::cancel(EventId id) {
  // Erasing from live_ turns the heap entry into a tombstone; it is skipped
  // when it reaches the top.
  return live_.erase(id) > 0;
}

void EventQueue::drop_tombstone_head() {
  while (!heap_.empty() && live_.count(heap_.front().id) == 0) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() {
  drop_tombstone_head();
  if (heap_.empty()) return kNeverTime;
  return heap_.front().time;
}

EventQueue::Ready EventQueue::pop() {
  drop_tombstone_head();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  // pop_heap moves the earliest entry to the back; move it out from there.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry top = std::move(heap_.back());
  heap_.pop_back();
  live_.erase(top.id);
  return Ready{top.time, top.id, std::move(top.fn), top.corr, top.type};
}

void EventQueue::clear() {
  heap_ = std::vector<Entry>();
  live_.clear();
}

}  // namespace p2panon::sim
