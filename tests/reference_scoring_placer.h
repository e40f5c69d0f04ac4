// A reference model of the high-fidelity scoring placer (§5), for the
// differential tests.
//
// ScoringPlacer builds one lazily extended candidate list per call and drops
// machines the job's own tasks filled. None of that is here: every task of
// ReferenceScoringPlacer restarts the availability-index walk at the job's
// start bucket and tests each machine it reaches against the cell plus the
// call's pending claims. Its placements, scores and visit counts are the
// specification ScoringPlacer must reproduce bit for bit
// (tests/reference_diff_test.cc, suite 5).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/cluster/pending_claims.h"
#include "src/hifi/scoring_placer.h"
#include "src/scheduler/placement.h"
#include "src/workload/job.h"

namespace omega {

// The best-fit walk for `min_request`: the availability index's machines
// from the start bucket up, in walk order.
inline std::vector<MachineId> AvailabilityWalk(const CellState& cell,
                                               const Resources& min_request) {
  std::vector<MachineId> walk;
  for (size_t b = cell.AvailabilityStartBucket(min_request);
       b < cell.NumAvailabilityBuckets(); ++b) {
    for (const MachineId m : cell.AvailabilityBucket(b)) {
      walk.push_back(m);
    }
  }
  return walk;
}

// The scoring placer with a per-task walk: each task visits the walk's
// machines from its start, stops after candidate_sample / 8 feasible
// machines or, once one is feasible, after 4 * candidate_sample visits, and
// takes the best-scoring feasible machine.
class ReferenceScoringPlacer final : public TaskPlacer {
 public:
  explicit ReferenceScoringPlacer(ScoringPlacerOptions options = {})
      : options_(options) {}

  uint32_t PlaceTasks(const CellState& cell, const Job& job, uint32_t count,
                      Rng& /*rng*/, std::vector<TaskClaim>* claims) override {
    const std::vector<MachineId> walk =
        AvailabilityWalk(cell, job.task_resources);
    PendingClaims pending;
    pending.Reset(cell.NumMachines());
    EpochFlagSet domains_used;
    const uint32_t max_feasible = std::max(1u, options_.candidate_sample / 8);
    const uint32_t max_visited = options_.candidate_sample * 4;
    uint32_t placed = 0;
    for (uint32_t t = 0; t < count; ++t) {
      MachineId best = kInvalidMachineId;
      double best_score = -1.0;
      uint32_t feasible = 0;
      uint32_t visited = 0;
      for (const MachineId m : walk) {
        ++visited;
        const Resources extra = pending.On(m);
        if (cell.CanFitWithPending(m, job.task_resources, extra) &&
            MachineSatisfiesConstraints(cell.Attributes(m), job)) {
          ++feasible;
          const Resources after =
              cell.Allocated(m) + extra + job.task_resources;
          const Resources usable = cell.UsableCapacity(m);
          const double fit = std::max(
              usable.cpus > 0.0 ? after.cpus / usable.cpus : 0.0,
              usable.mem_gb > 0.0 ? after.mem_gb / usable.mem_gb : 0.0);
          const double spread =
              domains_used.Contains(cell.FailureDomain(m)) ? 0.0 : 1.0;
          const double score = options_.best_fit_weight * fit +
                               options_.spreading_weight * spread;
          if (score > best_score) {
            best_score = score;
            best = m;
          }
        }
        if (feasible >= max_feasible ||
            (feasible > 0 && visited >= max_visited)) {
          break;
        }
      }
      if (best == kInvalidMachineId) {
        break;
      }
      claims->push_back(
          TaskClaim{best, job.task_resources, cell.Seqnum(best)});
      pending.Add(best, job.task_resources);
      domains_used.Insert(cell.FailureDomain(best));
      ++placed;
    }
    return placed;
  }

 private:
  ScoringPlacerOptions options_;
};

}  // namespace omega
