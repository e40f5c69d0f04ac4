#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace omega {

void EventQueue::Reserve(size_t n) {
  if (n <= heap_.capacity()) {
    return;
  }
  // At least double, so that repeated reservations (one per federated cell on
  // a shared queue) grow the buffers as geometrically as Push does.
  n = std::max(n, 2 * heap_.capacity());
  slots_.reserve(n);
  heap_.reserve(n);
}

void EventQueue::Push(SimTime time, Callback callback) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(callback);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(callback));
  }
  heap_.push_back(Entry{time, next_sequence_++, slot});
  SiftUp(heap_.size() - 1);
}

SimTime EventQueue::PeekTime() const {
  OMEGA_CHECK(!heap_.empty());
  return heap_[0].time;
}

EventQueue::Callback EventQueue::Pop(SimTime* time_out) {
  OMEGA_CHECK(!heap_.empty());
  const uint32_t slot = heap_[0].slot;
  *time_out = heap_[0].time;
  Callback cb = std::move(slots_[slot]);
  slots_[slot] = nullptr;
  free_slots_.push_back(slot);
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
  return cb;
}

void EventQueue::SiftUp(size_t pos) {
  const Entry moving = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / kHeapArity;
    if (!moving.Before(heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = moving;
}

void EventQueue::SiftDown(size_t pos) {
  const Entry moving = heap_[pos];
  const size_t size = heap_.size();
  while (true) {
    const size_t first_child = pos * kHeapArity + 1;
    if (first_child >= size) {
      break;
    }
    const size_t end_child = std::min(first_child + kHeapArity, size);
    size_t best = first_child;
    for (size_t c = first_child + 1; c < end_child; ++c) {
      if (heap_[c].Before(heap_[best])) {
        best = c;
      }
    }
    if (!heap_[best].Before(moving)) {
      break;
    }
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = moving;
}

}  // namespace omega
