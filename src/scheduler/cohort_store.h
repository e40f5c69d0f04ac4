// Cohorts: one shared end event per placement batch (DESIGN.md §10).
//
// The workload model guarantees that all tasks of a job are identical (§2.1),
// so every task started by one StartTasks call — one committed placement
// batch — shares a start time and a duration, and therefore an end time. A
// cohort gives those tasks a single end event, instead of one heap event and
// closure per task; when it fires, the members are freed one by one in claim
// order. Machine failures and preemption can still kill individual members:
// RemoveMember drops the victim from the cohort (the caller frees the
// victim's resources immediately). A cohort emptied by kills stays live until
// its shared end event fires, which then frees nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/common/logging.h"
#include "src/workload/job.h"

namespace omega {

// One placement batch's worth of running tasks sharing an end time.
struct Cohort {
  JobId job = 0;
  // Runs per member, in claim order, before the member's resources are freed
  // (Mesos allocator bookkeeping, QueueScheduler's resource_limit account).
  std::function<void(const TaskClaim&)> on_task_end;
  // Members in claim order: the claims the end event frees, and the parallel
  // TaskRegistry ids (empty when the registry is off).
  std::vector<TaskClaim> member_claims;
  std::vector<uint64_t> member_tasks;
};

// Slab of live cohorts with generation-tagged ids: id 0 is reserved as "no
// cohort" so RunningTask::cohort can use 0 as its null value.
class CohortStore {
 public:
  using CohortId = uint64_t;
  static constexpr CohortId kNoCohort = 0;

  // Creates an empty cohort; members are added as claims are started.
  CohortId Create(JobId job, std::function<void(const TaskClaim&)> on_task_end);

  Cohort& Get(CohortId id) {
    const uint32_t slot = CheckedSlot(id);
    return slots_[slot].cohort;
  }

  // Moves the cohort out and releases its slot (end-event fire path). Taking
  // rather than referencing keeps the fire loop safe against callbacks that
  // create new cohorts (slab growth would invalidate references).
  Cohort Take(CohortId id);

  // Evicts one member (machine failure or preemption); the caller frees the
  // victim's resources. The cohort stays live, even when emptied, until its
  // end event takes it.
  void RemoveMember(CohortId id, uint64_t task_id);

 private:
  struct Slot {
    Cohort cohort;
    uint32_t generation = 0;
    uint32_t next_free = kNoSlot;
    bool live = false;
  };
  static constexpr uint32_t kNoSlot = ~0u;

  uint32_t CheckedSlot(CohortId id) const {
    const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu) - 1;
    OMEGA_CHECK(slot < slots_.size() && slots_[slot].live &&
                slots_[slot].generation == static_cast<uint32_t>(id >> 32))
        << "stale or invalid cohort id " << id;
    return slot;
  }
  void ReleaseSlot(uint32_t slot);

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
};

}  // namespace omega
