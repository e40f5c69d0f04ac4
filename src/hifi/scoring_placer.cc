#include "src/hifi/scoring_placer.h"

#include <algorithm>

#include "src/common/logging.h"

namespace omega {

ScoringPlacer::ScoringPlacer(ScoringPlacerOptions options)
    : options_(options) {}

uint32_t ScoringPlacer::PlaceTasks(const CellState& cell, const Job& job,
                                   uint32_t count, Rng& /*rng*/,
                                   std::vector<TaskClaim>* claims) {
  OMEGA_CHECK(cell.HasAvailabilityIndex())
      << "ScoringPlacer needs the cell's availability index: call "
         "CellState::EnableAvailabilityIndex() before placing (as "
         "MakeHifiSimulation does)";
  const Resources& request = job.task_resources;
  PendingClaims& pending = pending_scratch_;
  pending.Reset(cell.NumMachines());
  EpochFlagSet& domains_used = domains_scratch_;
  domains_used.Reset();

  // Global best-fit via the availability index: each task walks machines
  // from the tightest feasible bucket upward; the first feasible candidates
  // are the globally best-packing choices, which is exactly why careful
  // placement algorithms concentrate onto the same machines and conflict
  // (§5). A task scores up to max_feasible feasible machines and, once one
  // is feasible, stops after max_visited walk entries.
  //
  // The cell is const for the whole call, so the walk's order is fixed and
  // its feasible machines are read once, into `candidates` (DESIGN.md §11,
  // "Scoring walk"). A walk entry is listed iff it fits with no pending
  // claims and satisfies the constraints: pending claims only shrink
  // availability, so no other entry is feasible for any task of the call.
  // Only the chosen machine gains pending claims, and it leaves the list
  // once it no longer fits, so every listed machine is feasible and a task's
  // visit count at a listed machine is that machine's walk position.
  std::vector<MachineId>& candidates = candidates_;
  candidates.clear();
  size_t bucket = cell.AvailabilityStartBucket(request);
  size_t pos = 0;
  uint32_t walked = 0;  // walk entries read so far
  const uint32_t max_feasible = std::max(1u, options_.candidate_sample / 8);
  const uint32_t max_visited = options_.candidate_sample * 4;
  // Reads the walk up to its next candidate and lists it. A task that has
  // scored a machine (`budgeted`) stops before entry max_visited; past the
  // budget, a task keeps walking only until something feasible turns up
  // (memory-bound or constrained tasks may need to reach looser buckets),
  // and a full walk happens only when nothing fits at all. Only a task's
  // first candidate can be read unbudgeted, so every later listed machine
  // lies within the budget. Returns whether it listed one.
  auto extend = [&](bool budgeted) {
    for (; bucket < cell.NumAvailabilityBuckets(); ++bucket, pos = 0) {
      const std::span<const MachineId> machines =
          cell.AvailabilityBucket(bucket);
      while (pos < machines.size()) {
        if (budgeted && walked >= max_visited) {
          return false;
        }
        const MachineId m = machines[pos++];
        ++walked;
        // The fit test goes first: it reads only the machine's allocation
        // slot, so most rejected entries never touch the attributes.
        if (cell.CanFit(m, request) &&
            MachineSatisfiesConstraints(cell.Attributes(m), job)) {
          candidates.push_back(m);
          return true;
        }
      }
    }
    return false;
  };

  uint32_t placed = 0;
  for (uint32_t t = 0; t < count; ++t) {
    MachineId best = kInvalidMachineId;
    size_t best_index = 0;
    double best_score = -1.0;
    for (size_t k = 0; k < max_feasible; ++k) {
      if (k == candidates.size() && !extend(/*budgeted=*/k > 0)) {
        break;
      }
      // Best-fit term: utilization of the machine after placement, in the
      // dominant dimension. Scoring the fullest feasible machine packs
      // tightly and leaves large holes for big tasks.
      const MachineId m = candidates[k];
      const Resources after = cell.Allocated(m) + pending.On(m) + request;
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
        best_index = k;
      }
    }
    if (best == kInvalidMachineId) {
      break;
    }
    claims->push_back(TaskClaim{best, request, cell.Seqnum(best)});
    pending.Add(best, request);
    domains_used.Insert(cell.FailureDomain(best));
    ++placed;
    if (!cell.CanFitWithPending(best, request, pending.On(best))) {
      candidates.erase(candidates.begin() + best_index);
    }
  }
  return placed;
}

}  // namespace omega
