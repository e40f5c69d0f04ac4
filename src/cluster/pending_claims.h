// Epoch-stamped dense scratch shared by CellState::Commit and the placers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/cluster/machine.h"
#include "src/cluster/resources.h"

namespace omega {

// Tracks pending same-transaction claims per machine so stacked claims see
// each other, both in the placers and in CellState::Commit's verdicts.
// Storage is a dense epoch-stamped per-machine array: On() — called once per
// placement probe, the placer hot path — is an array read instead of a hash
// lookup, and Reset() starts a new transaction in O(1) by bumping the epoch.
// Holders keep one as persistent scratch across calls; a default-constructed
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

}  // namespace omega
