#include "src/cluster/task_registry.h"

#include <algorithm>

namespace omega {

uint64_t TaskRegistry::Add(MachineId machine, const Resources& resources,
                           int32_t precedence, uint64_t cohort) {
  const uint64_t id = next_id_++;
  uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.task = RunningTask{id, machine, resources, precedence, cohort};
  s.live = true;
  s.next_free = kNoSlot;
  if (machine >= by_machine_.size()) {
    by_machine_.resize(machine + 1);
  }
  s.pos_on_machine = static_cast<uint32_t>(by_machine_[machine].size());
  by_machine_[machine].push_back(slot);
  slot_of_.emplace(id, slot);
  ++num_running_;
  return id;
}

bool TaskRegistry::Remove(uint64_t task_id) {
  auto it = slot_of_.find(task_id);
  if (it == slot_of_.end()) {
    return false;
  }
  const uint32_t slot = it->second;
  Slot& s = slots_[slot];
  std::vector<uint32_t>& list = by_machine_[s.task.machine];
  const uint32_t pos = s.pos_on_machine;
  const uint32_t moved = list.back();
  list[pos] = moved;
  slots_[moved].pos_on_machine = pos;
  list.pop_back();
  s.live = false;
  s.next_free = free_head_;
  free_head_ = slot;
  slot_of_.erase(it);
  --num_running_;
  return true;
}

Resources TaskRegistry::PreemptibleOn(MachineId machine,
                                      int32_t precedence) const {
  Resources total;
  if (machine >= by_machine_.size()) {
    return total;
  }
  for (const uint32_t slot : by_machine_[machine]) {
    const RunningTask& task = slots_[slot].task;
    if (task.precedence < precedence) {
      total += task.resources;
    }
  }
  return total;
}

std::vector<RunningTask> TaskRegistry::SelectVictims(
    MachineId machine, int32_t precedence, const Resources& needed) const {
  if (machine >= by_machine_.size()) {
    return {};
  }
  std::vector<RunningTask> candidates;
  for (const uint32_t slot : by_machine_[machine]) {
    const RunningTask& task = slots_[slot].task;
    if (task.precedence < precedence) {
      candidates.push_back(task);
    }
  }
  // Evict the least important work first; break ties on smaller tasks to
  // minimize wasted work.
  std::sort(candidates.begin(), candidates.end(),
            [](const RunningTask& a, const RunningTask& b) {
              if (a.precedence != b.precedence) {
                return a.precedence < b.precedence;
              }
              return a.resources.cpus < b.resources.cpus;
            });
  std::vector<RunningTask> victims;
  Resources freed;
  for (const RunningTask& task : candidates) {
    if (needed.FitsIn(freed)) {
      break;
    }
    victims.push_back(task);
    freed += task.resources;
  }
  if (!needed.FitsIn(freed)) {
    return {};
  }
  return victims;
}

size_t TaskRegistry::NumRunningOn(MachineId machine) const {
  return machine < by_machine_.size() ? by_machine_[machine].size() : 0;
}

std::vector<RunningTask> TaskRegistry::TasksOn(MachineId machine) const {
  std::vector<RunningTask> out;
  if (machine >= by_machine_.size()) {
    return out;
  }
  out.reserve(by_machine_[machine].size());
  for (const uint32_t slot : by_machine_[machine]) {
    out.push_back(slots_[slot].task);
  }
  return out;
}

}  // namespace omega
