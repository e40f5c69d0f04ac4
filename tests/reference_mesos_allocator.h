// A naive reference model of the Mesos allocator's offer ledger (§3.3, §4.2),
// for tests/mesos_offer_diff_test.cc.
//
// MesosAllocator keeps machines whose ledger is exactly +0 out of its rounds
// and hands them over as sets (DESIGN.md §5, "The offer ledger"). None of
// that is here: every round recomputes clamp(available - offered) for every
// machine of the cell, every committed claim debits its machine, and every
// returned slice credits its machine, one per-machine loop each. Its
// arithmetic is the specification the allocator must reproduce bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/cluster/resources.h"
#include "src/mesos/offer.h"

namespace omega {

class ReferenceOfferLedger {
 public:
  ReferenceOfferLedger(uint32_t num_machines, size_t num_frameworks)
      : offered_(num_machines, Resources::Zero()),
        outstanding_(num_frameworks) {}

  // One allocation round for framework `f`: the offer it delivers, in
  // machine order.
  const std::vector<OfferSlice>& Round(size_t f, const CellState& cell) {
    std::vector<OfferSlice>& offer = outstanding_[f];
    offer.clear();
    for (MachineId m = 0; m < cell.NumMachines(); ++m) {
      const Resources available =
          (cell.machine(m).Available() - offered_[m]).ClampNonNegative();
      if (available.IsZero()) {
        continue;
      }
      if (!(offered_[m] == Resources::Zero())) {
        ++(offered_[m].IsZero() ? residue_slices_ : overlap_slices_);
      }
      offer.push_back(OfferSlice{m, available});
      offered_[m] += available;
    }
    return offer;
  }

  // Framework `f` placed and committed `claims` on its offer: each claim
  // consumed its share of the slice (in claim order, as the framework placed
  // them) and unlocks it from the ledger.
  void Used(size_t f, std::span<const TaskClaim> claims) {
    for (const TaskClaim& claim : claims) {
      for (OfferSlice& slice : outstanding_[f]) {
        if (slice.machine == claim.machine) {
          slice.resources -= claim.resources;
          break;
        }
      }
      offered_[claim.machine] -= claim.resources;
      offered_[claim.machine] = offered_[claim.machine].ClampNonNegative();
    }
  }

  // Framework `f` returns the unused remainder of its offer.
  void Return(size_t f) {
    for (const OfferSlice& slice : outstanding_[f]) {
      offered_[slice.machine] -= slice.resources;
      offered_[slice.machine] = offered_[slice.machine].ClampNonNegative();
    }
    outstanding_[f].clear();
  }

  const Resources& OfferedOn(MachineId m) const { return offered_[m]; }

  // Slices offered on a machine whose ledger was not exactly +0 — the
  // allocator's explicit path: the ledger held a floating-point residue
  // (below kResourceEpsilon), or another outstanding offer.
  int64_t residue_slices() const { return residue_slices_; }
  int64_t overlap_slices() const { return overlap_slices_; }

 private:
  std::vector<Resources> offered_;
  std::vector<std::vector<OfferSlice>> outstanding_;
  int64_t residue_slices_ = 0;
  int64_t overlap_slices_ = 0;
};

}  // namespace omega
