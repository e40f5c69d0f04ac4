#include "src/cluster/cell_state.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace omega {

CellState::CellState(uint32_t num_machines, const Resources& machine_capacity,
                     FullnessPolicy fullness, double headroom_fraction,
                     uint32_t machines_per_domain)
    : CellState(std::vector<Resources>(num_machines, machine_capacity),
                fullness, headroom_fraction, machines_per_domain) {}

CellState::CellState(std::vector<Resources> machine_capacities,
                     FullnessPolicy fullness, double headroom_fraction,
                     uint32_t machines_per_domain)
    : fullness_(fullness), headroom_fraction_(headroom_fraction) {
  OMEGA_CHECK(!machine_capacities.empty());
  OMEGA_CHECK(machines_per_domain > 0);
  OMEGA_CHECK(headroom_fraction >= 0.0 && headroom_fraction < 1.0);
  const size_t n = machine_capacities.size();
  slots_.resize(n);
  seqnum_.assign(n, 0);
  info_.resize(n);
  total_allocated_ = Resources::Zero();
  for (uint32_t i = 0; i < n; ++i) {
    info_[i].capacity = machine_capacities[i];
    info_[i].failure_domain = static_cast<int32_t>(i / machines_per_domain);
    total_capacity_ += machine_capacities[i];
    // The fit limit is the right-hand side of FitsIn(UsableCapacity(i)),
    // computed once: `used <= fit` is then bitwise the same test.
    const Resources usable = UsableCapacity(i);
    slots_[i].fit = Resources{usable.cpus + kResourceEpsilon,
                              usable.mem_gb + kResourceEpsilon};
  }
}

MachineId CellState::FindFirstFit(MachineId begin, MachineId end,
                                  const Resources& request) const {
  const MachineId to = std::min(end, NumMachines());
  const Slot* __restrict slots = slots_.data();
  const double rc = request.cpus;
  const double rm = request.mem_gb;
  // CanFit's test with no pending claims (see CanFitWithPending), without
  // short-circuiting so the chunk loop below stays branch-free.
  auto fits = [rc, rm](const Slot& s) {
    return static_cast<uint32_t>(s.allocated.cpus + rc <= s.fit.cpus) &
           static_cast<uint32_t>(s.allocated.mem_gb + rm <= s.fit.mem_gb);
  };
  // Branchless 8-wide chunks first: an early-exit loop defeats
  // auto-vectorization, so accumulate a chunk-level "any machine fits" mask
  // and only drop to the scalar rescan once a chunk reports a hit.
  constexpr uint32_t kChunk = 8;
  uint32_t i = begin;
  for (; i + kChunk <= to; i += kChunk) {
    uint32_t any = 0;
    for (uint32_t k = 0; k < kChunk; ++k) {
      any += fits(slots[i + k]);
    }
    if (any != 0) {
      break;
    }
  }
  for (; i < to; ++i) {
    if (fits(slots[i]) != 0) {
      return i;
    }
  }
  return kInvalidMachineId;
}

Resources CellState::UsableCapacity(MachineId id) const {
  const Resources& capacity = info_[id].capacity;
  if (fullness_ == FullnessPolicy::kExact) {
    return capacity;
  }
  return capacity * (1.0 - headroom_fraction_);
}

bool CellState::CanFit(MachineId id, const Resources& request) const {
  return CanFitWithPending(id, request, Resources::Zero());
}

bool CellState::CanFitWithPending(MachineId id, const Resources& request,
                                  const Resources& extra) const {
  // used.FitsIn(UsableCapacity(id)) against the precomputed limit, so the
  // test reads one slot. FindFirstFit's `alloc + request` is the same sum
  // with extra = 0 (x + 0.0 == x bitwise for the values that occur here).
  const Slot& slot = slots_[id];
  const Resources used = slot.allocated + extra + request;
  return used.cpus <= slot.fit.cpus && used.mem_gb <= slot.fit.mem_gb;
}

void CellState::Allocate(MachineId id, Resources request) {
  Resources& allocated = slots_[id].allocated;
  const Resources& capacity = info_[id].capacity;
  OMEGA_CHECK((allocated + request).FitsIn(capacity))
      << "overcommit on machine " << id << ": allocated=" << allocated
      << " request=" << request << " capacity=" << capacity;
  const size_t old_bucket = HasAvailabilityIndex() ? BucketFor(id) : 0;
  allocated += request;
  ++seqnum_[id];
  total_allocated_ += request;
  if (HasAvailabilityIndex()) {
    IndexUpdate(id, old_bucket);
  }
}

void CellState::Free(MachineId id, Resources request) {
  Resources& allocated = slots_[id].allocated;
  const size_t old_bucket = HasAvailabilityIndex() ? BucketFor(id) : 0;
  allocated -= request;
  OMEGA_CHECK(!allocated.IsNegative())
      << "negative allocation on machine " << id << " after freeing "
      << request;
  allocated = allocated.ClampNonNegative();
  ++seqnum_[id];
  total_allocated_ -= request;
  total_allocated_ = total_allocated_.ClampNonNegative();
  if (HasAvailabilityIndex()) {
    IndexUpdate(id, old_bucket);
  }
}

void CellState::EnableAvailabilityIndex(uint32_t num_buckets) {
  OMEGA_CHECK(num_buckets > 0);
  double max_cpus = 0.0;
  double max_mem = 0.0;
  for (const MachineInfo& info : info_) {
    max_cpus = std::max(max_cpus, info.capacity.cpus);
    max_mem = std::max(max_mem, info.capacity.mem_gb);
  }
  OMEGA_CHECK(max_cpus > 0.0);
  mem_per_cpu_ = max_mem > 0.0 ? max_mem / max_cpus : 1.0;
  bucket_scale_ = static_cast<double>(num_buckets) / max_cpus;
  buckets_.assign(num_buckets + 1, {});
  bucket_of_.assign(NumMachines(), 0);
  pos_in_bucket_.assign(NumMachines(), 0);
  for (MachineId id = 0; id < NumMachines(); ++id) {
    IndexInsert(id);
  }
}

double CellState::EffectiveKey(const Resources& r) const {
  const double mem_in_cpu_units =
      mem_per_cpu_ > 0.0 ? r.mem_gb / mem_per_cpu_ : 0.0;
  // For a *request*, the binding dimension is the larger requirement; for an
  // *availability*, callers want the smaller headroom — BucketFor handles the
  // min side directly.
  return std::max(r.cpus, mem_in_cpu_units);
}

size_t CellState::BucketFor(MachineId id) const {
  const Resources available = info_[id].capacity - slots_[id].allocated;
  const double mem_in_cpu_units =
      mem_per_cpu_ > 0.0 ? available.mem_gb / mem_per_cpu_ : available.cpus;
  const double effective = std::min(available.cpus, mem_in_cpu_units);
  const auto bucket = static_cast<int64_t>(effective * bucket_scale_);
  return static_cast<size_t>(std::clamp<int64_t>(
      bucket, 0, static_cast<int64_t>(buckets_.size()) - 1));
}

void CellState::IndexInsert(MachineId id) {
  const size_t bucket = BucketFor(id);
  bucket_of_[id] = static_cast<uint32_t>(bucket);
  pos_in_bucket_[id] = static_cast<uint32_t>(buckets_[bucket].size());
  buckets_[bucket].push_back(id);
}

void CellState::IndexRemove(MachineId id) {
  const size_t bucket = bucket_of_[id];
  const size_t pos = pos_in_bucket_[id];
  std::vector<MachineId>& list = buckets_[bucket];
  const MachineId moved = list.back();
  list[pos] = moved;
  pos_in_bucket_[moved] = static_cast<uint32_t>(pos);
  list.pop_back();
}

void CellState::IndexUpdate(MachineId id, size_t old_bucket) {
  const size_t new_bucket = BucketFor(id);
  if (new_bucket == old_bucket) {
    return;
  }
  IndexRemove(id);
  IndexInsert(id);
}

size_t CellState::AvailabilityStartBucket(const Resources& min_request) const {
  OMEGA_CHECK(HasAvailabilityIndex());
  // Under the headroom policy a machine must keep headroom_fraction of its
  // capacity free *beyond* the request, so buckets below that offset can
  // never fit — skip them (best-fit packing piles machines up exactly there).
  const double max_cpus =
      static_cast<double>(buckets_.size() - 1) / bucket_scale_;
  const double headroom_key = fullness_ == FullnessPolicy::kHeadroom
                                  ? headroom_fraction_ * max_cpus
                                  : 0.0;
  const double min_key = EffectiveKey(min_request) + headroom_key;
  return static_cast<size_t>(
      std::clamp<int64_t>(static_cast<int64_t>(min_key * bucket_scale_), 0,
                          static_cast<int64_t>(buckets_.size()) - 1));
}

CommitResult CellState::Commit(std::span<const TaskClaim> claims,
                               ConflictMode conflict_mode,
                               CommitMode commit_mode,
                               std::vector<TaskClaim>* rejected,
                               std::vector<TaskClaim>* accepted) {
  CommitResult result;
  if (claims.empty()) {
    return result;
  }

  // Phase 1: decide acceptance per claim against the current state, tracking
  // pending same-transaction allocations so intra-transaction claims stack
  // correctly and never count as conflicts against each other. The pending
  // sums live in the PendingClaims scratch (see the member comment).
  accept_scratch_.assign(claims.size(), 0);
  std::vector<char>& accept = accept_scratch_;
  PendingClaims& pending = pending_scratch_;
  pending.Reset(NumMachines());

  for (size_t i = 0; i < claims.size(); ++i) {
    const TaskClaim& claim = claims[i];
    bool ok = false;
    switch (conflict_mode) {
      case ConflictMode::kFineGrained: {
        // Conflict only if the claim no longer fits given what has been
        // committed since placement (plus pending claims from this txn).
        ok = CanFitWithPending(claim.machine, claim.resources,
                               pending.On(claim.machine));
        break;
      }
      case ConflictMode::kCoarseGrained: {
        // Conflict if the machine changed at all since the scheduler's local
        // copy was synced — even if the change was a *free* that still
        // leaves room (a spurious conflict, §5.2).
        ok = seqnum_[claim.machine] == claim.seqnum_at_placement;
        if (ok) {
          // Unchanged machine: the placement was computed against exactly
          // this state, so the claim must still fit (pending claims
          // included, since the scheduler placed them against its local
          // copy too).
          ok = CanFitWithPending(claim.machine, claim.resources,
                                 pending.On(claim.machine));
        }
        break;
      }
    }
    accept[i] = ok ? 1 : 0;
    if (ok) {
      pending.Add(claim.machine, claim.resources);
    }
  }

  // Phase 2: apply semantics. All-or-nothing rejects everything if any claim
  // conflicted (gang scheduling, §3.4).
  bool any_conflict = false;
  for (char a : accept) {
    if (a == 0) {
      any_conflict = true;
      break;
    }
  }
  if (commit_mode == CommitMode::kAllOrNothing && any_conflict) {
    result.accepted = 0;
    result.conflicted = static_cast<int>(claims.size());
    if (rejected != nullptr) {
      rejected->assign(claims.begin(), claims.end());
    }
    if (commit_observer_) {
      commit_observer_(claims, result);
    }
    return result;
  }

  // Phase 3: apply the accepted claims atomically, one Allocate each in
  // claim order — the order the reference model applies them in.
  for (size_t i = 0; i < claims.size(); ++i) {
    if (accept[i] != 0) {
      Allocate(claims[i].machine, claims[i].resources);
      ++result.accepted;
      if (accepted != nullptr) {
        accepted->push_back(claims[i]);
      }
    } else {
      ++result.conflicted;
      if (rejected != nullptr) {
        rejected->push_back(claims[i]);
      }
    }
  }
  if (commit_observer_) {
    commit_observer_(claims, result);
  }
  return result;
}

double CellState::CpuUtilization() const {
  return total_capacity_.cpus > 0.0
             ? total_allocated_.cpus / total_capacity_.cpus
             : 0.0;
}

double CellState::MemUtilization() const {
  return total_capacity_.mem_gb > 0.0
             ? total_allocated_.mem_gb / total_capacity_.mem_gb
             : 0.0;
}

double CellState::MaxUtilization() const {
  return std::max(CpuUtilization(), MemUtilization());
}

bool CellState::CheckInvariants() const {
  Resources sum;
  for (MachineId id = 0; id < NumMachines(); ++id) {
    const Resources& allocated = slots_[id].allocated;
    if (allocated.IsNegative() || !allocated.FitsIn(info_[id].capacity)) {
      return false;
    }
    sum += allocated;
  }
  const Resources diff = sum - total_allocated_;
  return std::abs(diff.cpus) < 1e-3 && std::abs(diff.mem_gb) < 1e-3;
}

}  // namespace omega
