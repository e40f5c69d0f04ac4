// Task placement algorithms.
//
// The lightweight simulator uses randomized first fit (Table 2); the
// high-fidelity simulator plugs in a constraint-aware scoring algorithm via
// the same interface (src/hifi/scoring_placer.h).
#pragma once

#include <span>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/cluster/pending_claims.h"
#include "src/common/random.h"
#include "src/workload/job.h"

namespace omega {

// True if a machine with `attributes` satisfies every placement constraint of
// `job`.
bool MachineSatisfiesConstraints(std::span<const int32_t> attributes,
                                 const Job& job);

// Interface: place up to `count` tasks of `job` against the current state of
// `cell`, appending one TaskClaim per placed task (with the machine's current
// sequence number captured for conflict detection). Placements must stack:
// claims produced within one call count against machine availability for
// subsequent tasks of the same call. Returns the number of tasks placed.
class TaskPlacer {
 public:
  virtual ~TaskPlacer() = default;

  virtual uint32_t PlaceTasks(const CellState& cell, const Job& job,
                              uint32_t count, Rng& rng,
                              std::vector<TaskClaim>* claims) = 0;
};

// A contiguous range of machine ids a placer may use. The default (empty)
// range means "the whole cell"; statically partitioned schedulers restrict
// their placer to their partition (§3.2).
struct MachineRange {
  MachineId begin = 0;
  MachineId end = 0;  // exclusive; begin == end means "whole cell"

  bool WholeCell() const { return begin == end; }
  uint32_t SizeIn(uint32_t num_machines) const {
    return WholeCell() ? num_machines : end - begin;
  }
  MachineId Nth(uint32_t i) const { return begin + i; }
};

// Randomized first fit: probe machines uniformly at random; fall back to a
// linear scan from a random offset so that a fit is found whenever one exists.
// Ignores placement constraints (lightweight simulator semantics, Table 2).
class RandomizedFirstFitPlacer final : public TaskPlacer {
 public:
  // `max_random_probes` bounds the random phase before the linear fallback.
  explicit RandomizedFirstFitPlacer(uint32_t max_random_probes = 32,
                                    bool respect_constraints = false,
                                    MachineRange range = {})
      : max_random_probes_(max_random_probes),
        respect_constraints_(respect_constraints),
        range_(range) {}

  uint32_t PlaceTasks(const CellState& cell, const Job& job, uint32_t count,
                      Rng& rng, std::vector<TaskClaim>* claims) override;

 private:
  uint32_t max_random_probes_;
  bool respect_constraints_;
  MachineRange range_;
  PendingClaims pending_scratch_;
};

}  // namespace omega

