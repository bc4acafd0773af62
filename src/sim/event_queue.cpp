#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace p2panon::sim {

EventId EventQueue::schedule(SimTime when, Callback fn,
                             obs::capacity::EventTypeId type) {
  std::uint32_t index;
  if (free_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[index];
  if (++slot.generation == 0) slot.generation = 1;  // keeps ids nonzero
  slot.fn = std::move(fn);  // a free slot's callback is already empty
  slot.corr = obs::current_correlation();
  slot.type = type;
  slot.live = true;
  ++live_;
  heap_.push_back(Key{when, next_seq_++, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return make_id(index, slot.generation);
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  // The key stays in the heap as a dead entry until it surfaces. The
  // callback is destroyed last, once `slot` is no longer used: its
  // destructor may schedule, which can grow slots_.
  Slot& slot = slots_[static_cast<std::uint32_t>(id)];
  slot.live = false;
  --live_;
  Callback doomed;
  doomed.swap(slot.fn);
  return true;
}

void EventQueue::drop_dead_head() {
  while (!heap_.empty() && !slots_[heap_.front().slot].live) {
    free_.push_back(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() {
  drop_dead_head();
  if (heap_.empty()) return kNeverTime;
  return heap_.front().time;
}

EventQueue::Ready EventQueue::pop() {
  drop_dead_head();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key top = heap_.back();
  heap_.pop_back();
  free_.push_back(top.slot);
  Slot& slot = slots_[top.slot];
  slot.live = false;
  --live_;
  Ready ready{top.time, make_id(top.slot, slot.generation), nullptr,
              slot.corr, slot.type};
  ready.fn.swap(slot.fn);
  return ready;
}

void EventQueue::clear() {
  // Every slot goes back to the free list with its generation kept. The
  // callbacks are destroyed after the bookkeeping, for the reason cancel()
  // gives.
  std::vector<Callback> doomed;
  doomed.reserve(live_);
  heap_.clear();
  free_.clear();
  for (std::uint32_t index = 0; index < slots_.size(); ++index) {
    Slot& slot = slots_[index];
    if (slot.live) {
      slot.live = false;
      doomed.emplace_back().swap(slot.fn);
    }
    free_.push_back(index);
  }
  live_ = 0;
}

}  // namespace p2panon::sim
