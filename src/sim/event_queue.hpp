// Discrete-event queue driving asynchronous devices.
//
// The CPU side of the simulation advances the clock by explicit cost
// accounting; devices with their own latency (timers, PCAP transfers, DMA,
// hardware-task completion) schedule callbacks at absolute cycle times.
// After every quantum of CPU progress, the kernel loop calls
// `run_due(clock.now())` so device events interleave deterministically with
// software execution.
#pragma once

#include <functional>
#include <queue>
#include <vector>

#include "sim/clock.hpp"
#include "util/types.hpp"

namespace minova::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  /// Callback slot in the low 32 bits, that slot's generation in the high
  /// 32. A slot's generation advances whenever its event fires or is
  /// cancelled, so the id of a finished event never matches the event that
  /// reuses the slot.
  using EventId = u64;

  /// Schedule `cb` to fire once the clock reaches `when` (absolute cycles).
  EventId schedule_at(cycles_t when, Callback cb);

  /// Cancel a pending event. Returns false if it already fired/was cancelled.
  bool cancel(EventId id);

  /// Fire every event with deadline <= `now`, in deadline order; ties fire
  /// in scheduling order (stable). Events scheduled by callbacks that are
  /// also due are fired in the same call.
  /// Returns the number of events fired.
  std::size_t run_due(cycles_t now);

  /// Deadline of the earliest pending event, or no value if empty.
  /// Drops cancelled entries off the top of the heap on the way (an
  /// internal cache; the set of pending events does not change).
  bool next_deadline(cycles_t& out) const;

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

 private:
  struct Event {
    cycles_t when;
    u64 seq;
    EventId id;
    // Ordered as a min-heap on (when, seq).
    bool operator>(const Event& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };
  struct Slot {
    Callback cb;
    u32 gen = 1;  // starts at 1 so that id 0 never names a live event
  };

  static u32 slot_of(EventId id) { return u32(id); }
  static u32 gen_of(EventId id) { return u32(id >> 32); }
  /// True while the event `id` has neither fired nor been cancelled.
  bool live(EventId id) const {
    const u32 slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].gen == gen_of(id) &&
           slots_[slot].cb != nullptr;
  }
  /// Empties `id`'s slot, retires its generation and recycles it.
  void release(EventId id);

  // Cancelled events stay in the heap until they reach the top, where
  // run_due or next_deadline drops them.
  mutable std::priority_queue<Event, std::vector<Event>, std::greater<>>
      heap_;
  std::vector<Slot> slots_;
  std::vector<u32> free_slots_;
  u64 next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace minova::sim
