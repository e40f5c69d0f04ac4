// Registry of running tasks, enabling preemption (§3.4).
//
// Omega schedulers may lay claim to resources that another scheduler has
// already acquired, provided they have the appropriate priority ("complete
// freedom to lay claim to any available cluster resources ... even ones that
// another scheduler has already acquired"). Preempting a task requires knowing
// which tasks run where; this registry tracks them when preemption is enabled
// (the simulations leave it off by default, like the paper's high-fidelity
// simulator, because it makes little difference and costs memory).
//
// Storage is a slab of task slots with an explicit free list plus a dense
// per-machine index of slot positions, so the hot preemption- and
// failure-path queries (PreemptibleOn, SelectVictims, TasksOn) are
// O(tasks on the machine) with no hashing, and Remove is O(1) via a
// position backpointer. Task ids stay small sequential integers (they appear
// in preemption trace records), resolved through one id->slot hash lookup.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cluster/machine.h"
#include "src/cluster/resources.h"

namespace omega {

struct RunningTask {
  uint64_t task_id = 0;
  MachineId machine = kInvalidMachineId;
  Resources resources;
  // Precedence: the common scale for the relative importance of work all
  // schedulers must agree on (§3.4). Higher preempts lower.
  int32_t precedence = 0;
  // Cohort membership (DESIGN.md §10): non-zero when the task's end is
  // batched into a shared cohort event; evicting it must also go through
  // CohortStore::RemoveMember. Zero for initial-fill tasks, whose private end
  // event finds the task gone from the registry after a kill.
  uint64_t cohort = 0;
};

class TaskRegistry {
 public:
  // Registers a running task; returns its id. Ids are never reused.
  uint64_t Add(MachineId machine, const Resources& resources,
               int32_t precedence, uint64_t cohort = 0);

  // Removes a task (completion, failure kill or eviction). Returns false if
  // unknown, e.g. when the task was already killed.
  bool Remove(uint64_t task_id);

  // Total resources on `machine` held by tasks with precedence strictly below
  // `precedence` (the preemptible pool).
  Resources PreemptibleOn(MachineId machine, int32_t precedence) const;

  // Selects victims on `machine` with precedence strictly below `precedence`
  // whose combined resources cover `needed`, lowest precedence first. Returns
  // an empty vector if the preemptible pool cannot cover the need. Does not
  // mutate the registry; the caller evicts via Remove().
  std::vector<RunningTask> SelectVictims(MachineId machine, int32_t precedence,
                                         const Resources& needed) const;

  size_t NumRunning() const { return num_running_; }
  size_t NumRunningOn(MachineId machine) const;

  // Snapshot of the tasks running on `machine` (machine failures kill them).
  std::vector<RunningTask> TasksOn(MachineId machine) const;

 private:
  static constexpr uint32_t kNoSlot = ~0u;

  struct Slot {
    RunningTask task;
    // Position of this slot in by_machine_[task.machine] while live; makes
    // Remove's swap-remove O(1) instead of a linear scan.
    uint32_t pos_on_machine = 0;
    uint32_t next_free = kNoSlot;
    bool live = false;
  };

  std::vector<Slot> slots_;
  std::unordered_map<uint64_t, uint32_t> slot_of_;
  // Per machine, the slots of the tasks running there (resized on demand).
  // List order evolves exactly like the previous implementation: append on
  // Add, swap-with-back on Remove — SelectVictims' sort is not stable, so the
  // candidate order feeds observable victim choice.
  std::vector<std::vector<uint32_t>> by_machine_;
  uint32_t free_head_ = kNoSlot;
  uint64_t next_id_ = 1;
  size_t num_running_ = 0;
};

}  // namespace omega
