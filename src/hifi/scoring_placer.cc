#include "src/hifi/scoring_placer.h"

#include <algorithm>

#include "src/common/logging.h"

namespace omega {

ScoringPlacer::ScoringPlacer(ScoringPlacerOptions options) : options_(options) {}

uint32_t ScoringPlacer::PlaceTasks(const CellState& cell, const Job& job,
                                   uint32_t count, Rng& /*rng*/,
                                   std::vector<TaskClaim>* claims) {
  OMEGA_CHECK(cell.HasAvailabilityIndex())
      << "ScoringPlacer needs the cell's availability index: call "
         "CellState::EnableAvailabilityIndex() before placing (as "
         "MakeHifiSimulation does)";
  PendingClaims& pending = pending_scratch_;
  pending.Reset(cell.NumMachines());
  EpochFlagSet& domains_used = domains_scratch_;
  domains_used.Reset();
  uint32_t placed = 0;

  for (uint32_t t = 0; t < count; ++t) {
    MachineId best = kInvalidMachineId;
    double best_score = -1.0;

    // consider() scores one candidate and keeps it if it beats the running
    // best; it returns false (touching nothing) when the machine is
    // infeasible. The fit test goes first: it reads only the machine's
    // allocation slot, so most rejected candidates never touch the
    // attributes (both tests are pure, so the order decides nothing).
    auto consider = [&](MachineId m) -> bool {
      const Resources extra = pending.On(m);
      if (!cell.CanFitWithPending(m, job.task_resources, extra) ||
          !MachineSatisfiesConstraints(cell.Attributes(m), job)) {
        return false;
      }
      // Best-fit term: utilization of the machine after placement, in the
      // dominant dimension. Scoring the fullest feasible machine packs tightly
      // and leaves large holes for big tasks.
      const Resources after = cell.Allocated(m) + extra + job.task_resources;
      const Resources usable = cell.UsableCapacity(m);
      const double fit = std::max(
          usable.cpus > 0.0 ? after.cpus / usable.cpus : 0.0,
          usable.mem_gb > 0.0 ? after.mem_gb / usable.mem_gb : 0.0);
      // Spreading term: reward failure domains this job does not occupy yet.
      const double spread =
          domains_used.Contains(cell.FailureDomain(m)) ? 0.0 : 1.0;
      const double score =
          options_.best_fit_weight * fit + options_.spreading_weight * spread;
      if (score > best_score) {
        best_score = score;
        best = m;
      }
      return true;
    };

    // Global best-fit via the availability index: visit machines from the
    // tightest feasible bucket upward; the first feasible candidates are the
    // globally best-packing choices, which is exactly why careful placement
    // algorithms concentrate onto the same machines and conflict (§5).
    uint32_t feasible = 0;
    uint32_t visited = 0;
    const uint32_t max_feasible = std::max(1u, options_.candidate_sample / 8);
    const uint32_t max_visited = options_.candidate_sample * 4;
    cell.VisitByAvailability(job.task_resources, [&](MachineId m) {
      ++visited;
      if (consider(m)) {
        ++feasible;
      }
      if (feasible >= max_feasible) {
        return false;  // enough tight candidates scored
      }
      // Past the visit budget, keep walking only until something feasible
      // turns up (memory-bound or constrained tasks may need to reach
      // looser buckets); a full walk happens only when nothing fits at all.
      return feasible == 0 || visited < max_visited;
    });
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

}  // namespace omega
