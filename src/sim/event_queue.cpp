#include "sim/event_queue.hpp"

#include <utility>

#include "util/assert.hpp"

namespace minova::sim {

EventQueue::EventId EventQueue::schedule_at(cycles_t when, Callback cb) {
  MINOVA_CHECK(cb != nullptr);
  u32 slot;
  if (free_slots_.empty()) {
    slot = u32(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].cb = std::move(cb);
  const EventId id = (EventId(slots_[slot].gen) << 32) | slot;
  heap_.push(Event{when, next_seq_++, id});
  ++live_count_;
  return id;
}

void EventQueue::release(EventId id) {
  Slot& s = slots_[slot_of(id)];
  s.cb = nullptr;
  ++s.gen;
  free_slots_.push_back(slot_of(id));
  --live_count_;
}

bool EventQueue::cancel(EventId id) {
  if (!live(id)) return false;
  release(id);  // its heap entry is dropped when it reaches the top
  return true;
}

std::size_t EventQueue::run_due(cycles_t now) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.top().when <= now) {
    const EventId id = heap_.top().id;
    heap_.pop();
    if (!live(id)) continue;  // was cancelled
    // Free the slot before the call: the callback may schedule into it.
    Callback cb = std::move(slots_[slot_of(id)].cb);
    release(id);
    cb();
    ++fired;
  }
  return fired;
}

bool EventQueue::next_deadline(cycles_t& out) const {
  while (!heap_.empty() && !live(heap_.top().id)) heap_.pop();
  if (heap_.empty()) return false;
  out = heap_.top().when;
  return true;
}

}  // namespace minova::sim
