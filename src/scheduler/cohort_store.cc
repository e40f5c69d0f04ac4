#include "src/scheduler/cohort_store.h"

#include <utility>

namespace omega {

CohortStore::CohortId CohortStore::Create(
    JobId job, std::function<void(const TaskClaim&)> on_task_end) {
  uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.cohort.job = job;
  s.cohort.on_task_end = std::move(on_task_end);
  s.live = true;
  s.next_free = kNoSlot;
  // Slot+1 keeps 0 free for kNoCohort; the generation tag invalidates ids
  // after slot reuse.
  return (static_cast<uint64_t>(s.generation) << 32) |
         static_cast<uint64_t>(slot + 1);
}

void CohortStore::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.cohort.on_task_end = nullptr;
  s.cohort.member_claims.clear();
  s.cohort.member_tasks.clear();
  s.live = false;
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

Cohort CohortStore::Take(CohortId id) {
  const uint32_t slot = CheckedSlot(id);
  Cohort out = std::move(slots_[slot].cohort);
  ReleaseSlot(slot);
  return out;
}

void CohortStore::RemoveMember(CohortId id, uint64_t task_id) {
  const uint32_t slot = CheckedSlot(id);
  Cohort& c = slots_[slot].cohort;
  OMEGA_CHECK(!c.member_tasks.empty())
      << "cohort member eviction requires tracked members";
  size_t pos = 0;
  while (pos < c.member_tasks.size() && c.member_tasks[pos] != task_id) {
    ++pos;
  }
  OMEGA_CHECK(pos < c.member_tasks.size())
      << "task " << task_id << " is not a member of cohort " << id;
  c.member_claims.erase(c.member_claims.begin() + static_cast<int64_t>(pos));
  c.member_tasks.erase(c.member_tasks.begin() + static_cast<int64_t>(pos));
}

}  // namespace omega
