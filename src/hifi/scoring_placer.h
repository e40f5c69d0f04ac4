// Constraint-aware scoring placement ("Google algorithm" stand-in, §5).
//
// SUBSTITUTION NOTE (DESIGN.md §2): the paper's high-fidelity simulator reuses
// Google's production scheduling code, which is proprietary. This placer
// reproduces its observable properties that matter to the §5 experiments:
//  - it respects task placement constraints (machines are filtered by the
//    job's attribute predicates), so picky jobs are genuinely hard to place;
//  - it makes *careful* placements by scoring candidates: best-fit packing
//    plus failure-domain spreading, which concentrates many schedulers'
//    choices onto the same attractive machines and thereby produces the
//    higher conflict rates the paper reports for the high-fidelity simulator;
//  - its cost is modeled by the same t_job + t_task * tasks linear model.
#pragma once

#include "src/scheduler/placement.h"

namespace omega {

struct ScoringPlacerOptions {
  // Bounds the availability-index walk per task (keeping placement cost
  // bounded on large cells): it stops after candidate_sample / 8 feasible
  // machines, or after 4 * candidate_sample visits once one is feasible.
  uint32_t candidate_sample = 64;
};

// Requires the cell's availability index (CellState::EnableAvailabilityIndex);
// PlaceTasks CHECK-fails without it.
//
// Each task walks the index from the job's start bucket and scores the
// feasible machines it visits (DESIGN.md §11, "Scoring walk"). One call
// reads that walk once, into a lazily extended list of the machines that
// fit the task with no pending claims and satisfy the job's constraints;
// every task iterates the list instead of re-reading the index, and a
// machine its own earlier tasks filled leaves the list. The placements are
// those of a walk that re-reads the index per task
// (tests/reference_scoring_placer.h).
class ScoringPlacer final : public TaskPlacer {
 public:
  // Weight of the best-fit packing term (prefer fuller machines).
  static constexpr double kBestFitWeight = 1.0;
  // Weight of the failure-domain spreading term (prefer domains the job does
  // not use yet, to resist coordinated failures).
  static constexpr double kSpreadingWeight = 0.25;

  explicit ScoringPlacer(ScoringPlacerOptions options = {});

  uint32_t PlaceTasks(const CellState& cell, const Job& job, uint32_t count,
                      Rng& rng, std::vector<TaskClaim>* claims) override;

 private:
  ScoringPlacerOptions options_;
  // The current call's candidate list, in walk order; a member so that its
  // storage is reused across calls.
  std::vector<MachineId> candidates_;
  PendingClaims pending_scratch_;
  // Failure domains the current job already occupies — dense epoch-stamped
  // scratch (domains are small dense ints), replacing the former
  // unordered_set so the scoring hot path does no hashing.
  EpochFlagSet domains_scratch_;
};

}  // namespace omega

