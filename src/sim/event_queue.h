// Priority queue of timestamped events with O(log n) insertion and removal of
// the earliest event.
//
// Ties on the timestamp are broken by insertion order, which makes simulation
// runs fully deterministic. There is no cancellation: an event whose work was
// undone fires anyway, and its owner's state makes it a no-op (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/sim_time.h"

namespace omega {

// 4-ary min-heap of (time, sequence, slot) keys over a slab of callbacks.
//
// Every pending event owns one slot in a slab (`slots_`) recycled through a
// free list, with its callback stored inline; the heap orders (time,
// sequence) keys so same-time events fire in insertion order. Sifting touches
// only the contiguous heap array, and Empty()/PeekTime()/PendingCount() are
// plain const reads.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Adds an event firing at `time`.
  void Push(SimTime time, Callback callback);

  // True if no events remain.
  bool Empty() const { return heap_.empty(); }

  // Time of the earliest event. Must not be called when Empty().
  SimTime PeekTime() const;

  // Removes and returns the earliest event's callback. Must not be called
  // when Empty().
  Callback Pop(SimTime* time_out);

  // Count of pushed, not yet fired events.
  size_t PendingCount() const { return heap_.size(); }

  // Pre-sizes the slab and heap for at least `n` pending events.
  void Reserve(size_t n);

 private:
  static constexpr uint32_t kHeapArity = 4;

  struct Entry {
    SimTime time;
    uint64_t sequence;
    uint32_t slot;

    bool Before(const Entry& other) const {
      if (time != other.time) {
        return time < other.time;
      }
      return sequence < other.sequence;
    }
  };

  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<Entry> heap_;
  uint64_t next_sequence_ = 0;
};

}  // namespace omega
