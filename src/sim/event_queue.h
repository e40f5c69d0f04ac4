// Priority queue of timestamped events with O(log n) insertion and O(log n)
// in-place cancellation.
//
// Ties on the timestamp are broken by (lane, insertion order), which makes
// simulation runs fully deterministic. Lanes fix the tie order of the
// shared-queue federation (DESIGN.md §13): it tags each cell's events with a
// distinct lane so that same-microsecond events from different logical
// streams order by stream, not by global push order. The fig_federation
// golden depends on that order. Single-stream users never set a lane; all
// their events share lane 0 and the order degenerates to the classic (time,
// insertion order).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/sim_time.h"

namespace omega {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Indexed 4-ary min-heap over a slab of event records.
//
// Every pending event owns one slot in a slab (`slots_`) recycled through a
// free list, with its callback stored inline; the heap orders (time, sequence)
// keys so same-time events fire in insertion order. Each slot tracks its heap
// position, so Cancel() removes its entry in place — no tombstones, no
// per-event hash-map traffic, and Empty()/PeekTime()/PendingCount() are plain
// const reads. An EventId encodes (slot generation, slot index); generations
// are bumped when a slot is vacated, which makes Cancel() on an already-fired,
// already-cancelled, or never-issued id a detectable no-op.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Adds an event firing at `time` on lane 0. Returns an id usable with
  // Cancel().
  EventId Push(SimTime time, Callback callback) {
    return Push(time, 0, std::move(callback));
  }

  // Adds an event firing at `time` on `lane`. At equal times, lower lanes
  // fire first; within a lane, insertion order.
  EventId Push(SimTime time, uint32_t lane, Callback callback);

  // Cancels a previously pushed event. Cancelling an already-fired or unknown
  // id is a no-op. Returns true if the event was pending.
  bool Cancel(EventId id);

  // True if no live events remain.
  bool Empty() const { return heap_.empty(); }

  // Time of the earliest live event. Must not be called when Empty().
  SimTime PeekTime() const;

  // Removes and returns the earliest live event's callback. Must not be
  // called when Empty(). `lane_out`, when non-null, receives the event's lane.
  Callback Pop(SimTime* time_out, uint32_t* lane_out = nullptr);

  // Count of live (pushed, not yet fired or cancelled) events.
  size_t PendingCount() const { return heap_.size(); }

  // Pre-sizes the slab and heap for `n` pending events.
  void Reserve(size_t n);

 private:
  static constexpr uint32_t kNoPos = ~0u;
  static constexpr uint32_t kHeapArity = 4;

  // One slab record. `heap_pos` is the slot's current index in `heap_`
  // (kNoPos while the slot sits on the free list), so cancellation can find
  // and remove its heap entry without searching.
  struct Slot {
    Callback callback;
    uint32_t heap_pos = kNoPos;
    uint32_t generation = 0;
    uint32_t next_free = kNoPos;
  };

  // One heap element. The ordering key is duplicated here (rather than read
  // through `slots_`) so sifting touches only the contiguous heap array.
  struct Entry {
    SimTime time;
    uint64_t sequence;
    uint32_t slot;
    uint32_t lane;

    bool Before(const Entry& other) const {
      if (time != other.time) {
        return time < other.time;
      }
      if (lane != other.lane) {
        return lane < other.lane;
      }
      return sequence < other.sequence;
    }
  };

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  // Removes the heap entry at `pos`, restoring the heap property.
  void RemoveFromHeap(size_t pos);
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  void PlaceEntry(size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = static_cast<uint32_t>(pos);
  }

  std::vector<Slot> slots_;
  std::vector<Entry> heap_;
  uint32_t free_head_ = kNoPos;
  uint64_t next_sequence_ = 0;
};

}  // namespace omega

