// A naive reference model of the shared cell state (§3.4) and of randomized
// first fit (Table 2), for the differential tests.
//
// CellState keeps per-machine state in flat arrays swept by a chunked
// first-fit scan; the harness gives each placement batch one shared end event
// (a cohort). None of that is here: ReferenceCell is per-machine loops over
// plain RefMachine records (its own layout, which owns its attributes), one
// mutation per task, and a Commit that decides and applies claim by claim in
// claim order. Its arithmetic is the specification the optimized paths must
// reproduce bit for bit (tests/reference_diff_test.cc).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/cluster/machine.h"
#include "src/cluster/resources.h"
#include "src/common/random.h"
#include "src/scheduler/placement.h"
#include "src/workload/job.h"

namespace omega {

// One machine's complete state, independent of CellState's storage.
struct RefMachine {
  MachineId id = kInvalidMachineId;
  Resources capacity;
  Resources allocated;
  uint64_t seqnum = 0;
  int32_t failure_domain = 0;
  std::vector<int32_t> attributes;
};

class ReferenceCell {
 public:
  ReferenceCell(uint32_t num_machines, const Resources& capacity,
                FullnessPolicy fullness = FullnessPolicy::kExact,
                double headroom_fraction = 0.0)
      : machines_(num_machines),
        fullness_(fullness),
        headroom_fraction_(headroom_fraction) {
    for (uint32_t i = 0; i < num_machines; ++i) {
      machines_[i].id = i;
      machines_[i].capacity = capacity;
    }
  }

  // Copies the per-machine state (capacity, allocation, seqnum, attributes)
  // and fullness policy of a live cell — none of its fit limits or scratch.
  static ReferenceCell Snapshot(const CellState& cell) {
    ReferenceCell ref(cell.NumMachines(), Resources::Zero(),
                      cell.fullness_policy(), cell.headroom_fraction());
    for (MachineId m = 0; m < cell.NumMachines(); ++m) {
      const Machine snapshot = cell.machine(m);
      RefMachine& copy = ref.machines_[m];
      copy.capacity = snapshot.capacity;
      copy.allocated = snapshot.allocated;
      copy.seqnum = snapshot.seqnum;
      copy.failure_domain = snapshot.failure_domain;
      copy.attributes.assign(snapshot.attributes.begin(),
                             snapshot.attributes.end());
    }
    ref.total_allocated_ = cell.TotalAllocated();
    return ref;
  }

  uint32_t NumMachines() const {
    return static_cast<uint32_t>(machines_.size());
  }
  const RefMachine& machine(MachineId id) const { return machines_[id]; }
  void SetAttributes(MachineId id, std::vector<int32_t> attributes) {
    machines_[id].attributes = std::move(attributes);
  }
  Resources TotalAllocated() const { return total_allocated_; }

  Resources UsableCapacity(MachineId id) const {
    const RefMachine& m = machines_[id];
    if (fullness_ == FullnessPolicy::kExact) {
      return m.capacity;
    }
    return m.capacity * (1.0 - headroom_fraction_);
  }

  bool CanFit(MachineId id, const Resources& request) const {
    return CanFitWithPending(id, request, Resources::Zero());
  }

  bool CanFitWithPending(MachineId id, const Resources& request,
                         const Resources& extra) const {
    const Resources used = machines_[id].allocated + extra + request;
    return used.FitsIn(UsableCapacity(id));
  }

  void Allocate(MachineId id, const Resources& request) {
    machines_[id].allocated += request;
    ++machines_[id].seqnum;
    total_allocated_ += request;
  }

  void Free(MachineId id, const Resources& request) {
    RefMachine& m = machines_[id];
    m.allocated -= request;
    m.allocated = m.allocated.ClampNonNegative();
    ++m.seqnum;
    total_allocated_ -= request;
    total_allocated_ = total_allocated_.ClampNonNegative();
  }

  // Decides every claim against the state plus the claims accepted before it
  // in this transaction, then applies the accepted ones one by one in claim
  // order. `accepted`, if non-null, receives the applied claims.
  CommitResult Commit(const std::vector<TaskClaim>& claims,
                      ConflictMode conflict_mode, CommitMode commit_mode,
                      std::vector<TaskClaim>* rejected = nullptr,
                      std::vector<TaskClaim>* accepted = nullptr) {
    CommitResult result;
    std::vector<Resources> pending(machines_.size());
    std::vector<bool> ok(claims.size());
    bool any_conflict = false;
    for (size_t i = 0; i < claims.size(); ++i) {
      const TaskClaim& c = claims[i];
      ok[i] = (conflict_mode == ConflictMode::kFineGrained ||
               machines_[c.machine].seqnum == c.seqnum_at_placement) &&
              CanFitWithPending(c.machine, c.resources, pending[c.machine]);
      if (ok[i]) {
        pending[c.machine] += c.resources;
      } else {
        any_conflict = true;
      }
    }
    if (any_conflict && commit_mode == CommitMode::kAllOrNothing) {
      result.conflicted = static_cast<int>(claims.size());
      if (rejected != nullptr) {
        rejected->assign(claims.begin(), claims.end());
      }
      return result;
    }
    for (size_t i = 0; i < claims.size(); ++i) {
      if (ok[i]) {
        Allocate(claims[i].machine, claims[i].resources);
        ++result.accepted;
        if (accepted != nullptr) {
          accepted->push_back(claims[i]);
        }
      } else {
        ++result.conflicted;
        if (rejected != nullptr) {
          rejected->push_back(claims[i]);
        }
      }
    }
    return result;
  }

  // First machine in [begin, min(end, NumMachines())) that can fit `request`,
  // or kInvalidMachineId.
  MachineId FirstFit(MachineId begin, MachineId end,
                     const Resources& request) const {
    for (MachineId m = begin; m < end && m < NumMachines(); ++m) {
      if (CanFit(m, request)) {
        return m;
      }
    }
    return kInvalidMachineId;
  }

 private:
  std::vector<RefMachine> machines_;
  Resources total_allocated_;
  FullnessPolicy fullness_;
  double headroom_fraction_;
};

// Randomized first fit as the seed shipped it: random probes within `range`,
// then a per-machine linear scan from a random offset that wraps once, with
// same-call claims stacking. Draws from `rng` exactly as
// RandomizedFirstFitPlacer promises to.
inline uint32_t ReferenceFirstFit(const ReferenceCell& cell, const Job& job,
                                  uint32_t count, Rng& rng,
                                  std::vector<TaskClaim>* claims,
                                  uint32_t max_random_probes = 32,
                                  MachineRange range = {}) {
  const uint32_t num_machines = range.SizeIn(cell.NumMachines());
  if (num_machines == 0 || count == 0) {
    return 0;
  }
  std::vector<Resources> pending(cell.NumMachines());
  auto fits = [&](MachineId m) {
    return cell.CanFitWithPending(m, job.task_resources, pending[m]);
  };
  uint32_t placed = 0;
  for (uint32_t t = 0; t < count; ++t) {
    MachineId chosen = kInvalidMachineId;
    for (uint32_t probe = 0; probe < max_random_probes; ++probe) {
      const MachineId m =
          range.Nth(static_cast<uint32_t>(rng.NextBounded(num_machines)));
      if (fits(m)) {
        chosen = m;
        break;
      }
    }
    if (chosen == kInvalidMachineId) {
      const auto start = static_cast<uint32_t>(rng.NextBounded(num_machines));
      for (uint32_t i = 0; i < num_machines; ++i) {
        const MachineId m = range.Nth((start + i) % num_machines);
        if (fits(m)) {
          chosen = m;
          break;
        }
      }
    }
    if (chosen == kInvalidMachineId) {
      break;
    }
    claims->push_back(
        TaskClaim{chosen, job.task_resources, cell.machine(chosen).seqnum});
    pending[chosen] += job.task_resources;
    ++placed;
  }
  return placed;
}

// ReferenceFirstFit as a TaskPlacer, with RandomizedFirstFitPlacer's default
// parameters: each call snapshots the live cell into a ReferenceCell, so the
// placement never touches CellState's scan code.
class ReferenceFirstFitPlacer final : public TaskPlacer {
 public:
  uint32_t PlaceTasks(const CellState& cell, const Job& job, uint32_t count,
                      Rng& rng, std::vector<TaskClaim>* claims) override {
    return ReferenceFirstFit(ReferenceCell::Snapshot(cell), job, count, rng,
                             claims);
  }
};

}  // namespace omega
