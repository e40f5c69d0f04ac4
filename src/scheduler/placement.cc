#include "src/scheduler/placement.h"

namespace omega {

bool MachineSatisfiesConstraints(std::span<const int32_t> attributes,
                                 const Job& job) {
  for (const PlacementConstraint& c : job.constraints) {
    if (c.attribute_key < 0 ||
        static_cast<size_t>(c.attribute_key) >= attributes.size()) {
      // Machines without the attribute fail equality constraints and satisfy
      // inequality constraints.
      if (c.must_equal) {
        return false;
      }
      continue;
    }
    const bool equal = attributes[c.attribute_key] == c.attribute_value;
    if (equal != c.must_equal) {
      return false;
    }
  }
  return true;
}

uint32_t RandomizedFirstFitPlacer::PlaceTasks(const CellState& cell,
                                              const Job& job, uint32_t count,
                                              Rng& rng,
                                              std::vector<TaskClaim>* claims) {
  const uint32_t num_machines = range_.SizeIn(cell.NumMachines());
  if (num_machines == 0 || count == 0) {
    return 0;
  }
  PendingClaims& pending = pending_scratch_;
  pending.Reset(cell.NumMachines());
  uint32_t placed = 0;
  for (uint32_t t = 0; t < count; ++t) {
    MachineId chosen = kInvalidMachineId;
    // Phase 1: random probes.
    for (uint32_t probe = 0; probe < max_random_probes_; ++probe) {
      const MachineId m =
          range_.Nth(static_cast<uint32_t>(rng.NextBounded(num_machines)));
      if (respect_constraints_ &&
          !MachineSatisfiesConstraints(cell.Attributes(m), job)) {
        continue;
      }
      if (cell.CanFitWithPending(m, job.task_resources, pending.On(m))) {
        chosen = m;
        break;
      }
    }
    // Phase 2: linear scan from a random offset; guarantees a fit is found
    // whenever one exists. FindFirstFit sweeps the contiguous per-resource
    // arrays and returns the first machine whose raw allocation fits; a
    // machine it skips fails CanFit outright, so
    // it would fail CanFitWithPending too (pending only shrinks
    // availability). Candidates just need the constraint and pending
    // re-checks, and a rejected candidate resumes the sweep at the next id.
    // The result is the first machine a per-machine CanFitWithPending loop
    // from `start` would accept, with the same RNG draws.
    if (chosen == kInvalidMachineId) {
      const auto start = static_cast<uint32_t>(rng.NextBounded(num_machines));
      for (uint32_t i = 0; i < num_machines;) {
        const uint32_t idx = (start + i) % num_machines;
        const MachineId m = range_.Nth(idx);
        // Machine ids ascend until the scan wraps at the range end.
        const uint32_t span = num_machines - idx;
        const MachineId hit =
            cell.FindFirstFit(m, m + span, job.task_resources);
        if (hit == kInvalidMachineId) {
          i += span;
          continue;
        }
        i += hit - m;
        if (respect_constraints_ &&
            !MachineSatisfiesConstraints(cell.Attributes(hit), job)) {
          ++i;
          continue;
        }
        if (cell.CanFitWithPending(hit, job.task_resources, pending.On(hit))) {
          chosen = hit;
          break;
        }
        ++i;
      }
    }
    if (chosen == kInvalidMachineId) {
      break;  // No machine fits: the remaining tasks cannot be placed now.
    }
    claims->push_back(
        TaskClaim{chosen, job.task_resources, cell.Seqnum(chosen)});
    pending.Add(chosen, job.task_resources);
    ++placed;
  }
  return placed;
}

}  // namespace omega
