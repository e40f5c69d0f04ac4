// Task placement algorithms.
//
// The lightweight simulator uses randomized first fit (Table 2); the
// high-fidelity simulator plugs in a constraint-aware scoring algorithm via
// the same interface (src/hifi/scoring_placer.h).
#pragma once

#include <algorithm>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/common/random.h"
#include "src/workload/job.h"

namespace omega {

// True if `machine` satisfies every placement constraint of `job`.
bool MachineSatisfiesConstraints(const Machine& machine, const Job& job);

// Interface: place up to `count` tasks of `job` against the current state of
// `cell`, appending one TaskClaim per placed task (with the machine's current
// sequence number captured for conflict detection). Placements must stack:
// claims produced within one call count against machine availability for
// subsequent tasks of the same call. Returns the number of tasks placed.
class TaskPlacer {
 public:
  virtual ~TaskPlacer() = default;

  virtual uint32_t PlaceTasks(const CellState& cell, const Job& job, uint32_t count,
                              Rng& rng, std::vector<TaskClaim>* claims) = 0;
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

// Helper shared by placers: tracks pending same-transaction claims per
// machine so stacked placements see each other. Storage is a dense
// epoch-stamped per-machine array: On() — called once per placement probe,
// the placer hot path — is an array read instead of a hash lookup, and
// Reset() starts a new transaction in O(1) by bumping the epoch. Placers
// hold one as persistent scratch across calls; a default-constructed
// instance works standalone (the arrays grow on demand).
class PendingClaims {
 public:
  // Starts a new transaction, forgetting all pending claims.
  void Reset(uint32_t num_machines) {
    ++epoch_;
    if (epoch_ == 0) {  // epoch wrapped: stale stamps could collide
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
    if (stamp_.size() < num_machines) {
      stamp_.resize(num_machines, 0u);
      amount_.resize(num_machines);
    }
  }

  void Add(MachineId machine, const Resources& res) {
    if (machine >= stamp_.size()) {
      stamp_.resize(machine + 1, 0u);
      amount_.resize(machine + 1);
    }
    if (stamp_[machine] != epoch_) {
      stamp_[machine] = epoch_;
      amount_[machine] = Resources::Zero();
    }
    amount_[machine] += res;
  }

  Resources On(MachineId machine) const {
    return machine < stamp_.size() && stamp_[machine] == epoch_
               ? amount_[machine]
               : Resources::Zero();
  }

 private:
  std::vector<Resources> amount_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 1;
};

// Dense epoch-stamped set of small non-negative int keys (failure domains,
// attribute ids): the same scratch pattern as PendingClaims, replacing a
// hot-path unordered_set with an array probe. Reset() is O(1); the arrays
// grow on demand; negative keys are never stored and never contained.
class EpochFlagSet {
 public:
  void Reset() {
    ++epoch_;
    if (epoch_ == 0) {  // epoch wrapped: stale stamps could collide
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  void Insert(int32_t key) {
    if (key < 0) {
      return;
    }
    const auto k = static_cast<size_t>(key);
    if (k >= stamp_.size()) {
      stamp_.resize(k + 1, 0u);
    }
    stamp_[k] = epoch_;
  }

  bool Contains(int32_t key) const {
    return key >= 0 && static_cast<size_t>(key) < stamp_.size() &&
           stamp_[static_cast<size_t>(key)] == epoch_;
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 1;
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

