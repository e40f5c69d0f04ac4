// Resource offers (two-level scheduling, §3.3).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/cluster/machine.h"
#include "src/cluster/resources.h"

namespace omega {

// A slice of one machine's currently unused resources, locked for the
// receiving framework while the offer is outstanding.
struct OfferSlice {
  MachineId machine = kInvalidMachineId;
  Resources resources;
};

// A set of machines, one bit each. The allocator moves whole sets between
// its ledger states with word operations (DESIGN.md §7, "The offer ledger").
class MachineSet {
 public:
  void Resize(uint32_t num_machines) {
    words_.assign((num_machines + 63) / 64, 0);
  }
  bool Contains(MachineId m) const {
    return ((words_[m >> 6] >> (m & 63)) & 1) != 0;
  }
  void Insert(MachineId m) { words_[m >> 6] |= Bit(m); }
  void Erase(MachineId m) { words_[m >> 6] &= ~Bit(m); }
  void Clear() { std::fill(words_.begin(), words_.end(), 0); }
  void UnionWith(const MachineSet& other) {
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }
  void Swap(MachineSet& other) { words_.swap(other.words_); }
  int64_t Count() const {
    int64_t n = 0;
    for (uint64_t w : words_) {
      n += std::popcount(w);
    }
    return n;
  }

  // Calls `fn(m)` for each member in ascending order while it returns true.
  // `fn` may erase members, including `m`.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      for (uint64_t w = words_[i]; w != 0; w &= w - 1) {
        const auto m = static_cast<MachineId>(i * 64 + std::countr_zero(w));
        if (!fn(m)) {
          return;
        }
      }
    }
  }

 private:
  static uint64_t Bit(MachineId m) { return uint64_t{1} << (m & 63); }

  std::vector<uint64_t> words_;
};

// An outstanding offer to one framework. The Mesos "simple allocator" offers
// *all* available resources at once and does not limit what a framework may
// accept (§3.3, footnote 3). A slice is either explicit, with its own amount
// and ledger entry, or implicit: a machine in `held`, offered at the
// allocator's cached spare until the framework places a task there or the
// machine changes.
struct ResourceOffer {
  std::vector<OfferSlice> slices;
  MachineSet held;
};

// Deterministic counts of the allocator's work (RunReport, fig7 BENCH JSON).
struct OfferCounters {
  int64_t rounds = 0;             // allocation rounds that picked a framework
  int64_t slices_offered = 0;     // slices delivered, explicit and implicit
  int64_t slices_consumed = 0;    // slices a framework placed a task on
  int64_t machines_examined = 0;  // ledgers a round recomputed explicitly
  int64_t holds_transferred = 0;  // clean machines handed over as a set
};

}  // namespace omega
