#include "src/cluster/cell_state.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace omega {

CellState::CellState(uint32_t num_machines, const Resources& machine_capacity,
                     FullnessPolicy fullness, double headroom_fraction,
                     uint32_t machines_per_domain)
    : CellState(std::vector<Resources>(num_machines, machine_capacity), fullness,
                headroom_fraction, machines_per_domain) {}

CellState::CellState(std::vector<Resources> machine_capacities,
                     FullnessPolicy fullness, double headroom_fraction,
                     uint32_t machines_per_domain)
    : fullness_(fullness), headroom_fraction_(headroom_fraction) {
  OMEGA_CHECK(!machine_capacities.empty());
  OMEGA_CHECK(machines_per_domain > 0);
  OMEGA_CHECK(headroom_fraction >= 0.0 && headroom_fraction < 1.0);
  machines_.resize(machine_capacities.size());
  total_allocated_ = Resources::Zero();
  for (uint32_t i = 0; i < machine_capacities.size(); ++i) {
    machines_[i].id = i;
    machines_[i].capacity = machine_capacities[i];
    machines_[i].failure_domain = static_cast<int32_t>(i / machines_per_domain);
    total_capacity_ += machine_capacities[i];
  }
  InitSoA();
}

void CellState::InitSoA() {
  const size_t n = machines_.size();
  soa_alloc_cpu_.assign(n, 0.0);
  soa_alloc_mem_.assign(n, 0.0);
  soa_fit_cpu_.resize(n);
  soa_fit_mem_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Precompute the fit limit so the scan predicate is a pure compare:
    // `alloc + request <= usable + epsilon` is componentwise exactly the
    // FitsIn test CanFit evaluates (with zero pending, x + 0.0 == x bitwise
    // for the values that occur here).
    const Resources usable = UsableCapacity(static_cast<MachineId>(i));
    soa_fit_cpu_[i] = usable.cpus + kResourceEpsilon;
    soa_fit_mem_[i] = usable.mem_gb + kResourceEpsilon;
  }
}

MachineId CellState::FindFirstFit(MachineId begin, MachineId end,
                                  const Resources& request) const {
  const MachineId to = std::min(end, NumMachines());
  const double* __restrict acpu = soa_alloc_cpu_.data();
  const double* __restrict amem = soa_alloc_mem_.data();
  const double* __restrict fcpu = soa_fit_cpu_.data();
  const double* __restrict fmem = soa_fit_mem_.data();
  const double rc = request.cpus;
  const double rm = request.mem_gb;
  // Branchless 8-wide chunks first: an early-exit loop defeats
  // auto-vectorization, so accumulate a chunk-level "any machine fits" mask
  // and only drop to the scalar rescan once a chunk reports a hit. The
  // predicate is componentwise exactly CanFit's FitsIn test (see InitSoA).
  constexpr uint32_t kChunk = 8;
  uint32_t i = begin;
  for (; i + kChunk <= to; i += kChunk) {
    uint32_t any = 0;
    for (uint32_t k = 0; k < kChunk; ++k) {
      any += static_cast<uint32_t>(acpu[i + k] + rc <= fcpu[i + k]) &
             static_cast<uint32_t>(amem[i + k] + rm <= fmem[i + k]);
    }
    if (any != 0) {
      break;
    }
  }
  for (; i < to; ++i) {
    if (acpu[i] + rc <= fcpu[i] && amem[i] + rm <= fmem[i]) {
      return i;
    }
  }
  return kInvalidMachineId;
}

Resources CellState::UsableCapacity(MachineId id) const {
  const Machine& m = machines_[id];
  if (fullness_ == FullnessPolicy::kExact) {
    return m.capacity;
  }
  return m.capacity * (1.0 - headroom_fraction_);
}

bool CellState::CanFit(MachineId id, const Resources& request) const {
  return CanFitWithPending(id, request, Resources::Zero());
}

bool CellState::CanFitWithPending(MachineId id, const Resources& request,
                                  const Resources& extra) const {
  const Machine& m = machines_[id];
  const Resources used = m.allocated + extra + request;
  return used.FitsIn(UsableCapacity(id));
}

void CellState::Allocate(MachineId id, const Resources& request_ref) {
  // Copy first: callers may pass a reference into this very machine (e.g.
  // Free(m, cell.machine(m).allocated)), which the updates below would alias.
  const Resources request = request_ref;
  Machine& m = machines_[id];
  OMEGA_CHECK((m.allocated + request).FitsIn(m.capacity))
      << "overcommit on machine " << id << ": allocated=" << m.allocated
      << " request=" << request << " capacity=" << m.capacity;
  const size_t old_bucket = HasAvailabilityIndex() ? BucketFor(id) : 0;
  m.allocated += request;
  ++m.seqnum;
  total_allocated_ += request;
  SyncSoA(id);
  if (HasAvailabilityIndex()) {
    IndexUpdate(id, old_bucket);
  }
}

void CellState::Free(MachineId id, const Resources& request_ref) {
  const Resources request = request_ref;  // see Allocate: aliasing hazard
  Machine& m = machines_[id];
  const size_t old_bucket = HasAvailabilityIndex() ? BucketFor(id) : 0;
  m.allocated -= request;
  OMEGA_CHECK(!m.allocated.IsNegative())
      << "negative allocation on machine " << id << " after freeing " << request;
  m.allocated = m.allocated.ClampNonNegative();
  ++m.seqnum;
  total_allocated_ -= request;
  total_allocated_ = total_allocated_.ClampNonNegative();
  SyncSoA(id);
  if (HasAvailabilityIndex()) {
    IndexUpdate(id, old_bucket);
  }
}

void CellState::EnableAvailabilityIndex(uint32_t num_buckets) {
  OMEGA_CHECK(num_buckets > 0);
  double max_cpus = 0.0;
  double max_mem = 0.0;
  for (const Machine& m : machines_) {
    max_cpus = std::max(max_cpus, m.capacity.cpus);
    max_mem = std::max(max_mem, m.capacity.mem_gb);
  }
  OMEGA_CHECK(max_cpus > 0.0);
  mem_per_cpu_ = max_mem > 0.0 ? max_mem / max_cpus : 1.0;
  bucket_scale_ = static_cast<double>(num_buckets) / max_cpus;
  buckets_.assign(num_buckets + 1, {});
  bucket_of_.assign(machines_.size(), 0);
  pos_in_bucket_.assign(machines_.size(), 0);
  for (const Machine& m : machines_) {
    IndexInsert(m.id);
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
  const Resources available = machines_[id].Available();
  const double mem_in_cpu_units =
      mem_per_cpu_ > 0.0 ? available.mem_gb / mem_per_cpu_ : available.cpus;
  const double effective = std::min(available.cpus, mem_in_cpu_units);
  const auto bucket = static_cast<int64_t>(effective * bucket_scale_);
  return static_cast<size_t>(
      std::clamp<int64_t>(bucket, 0, static_cast<int64_t>(buckets_.size()) - 1));
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

void CellState::VisitByAvailability(
    const Resources& min_request,
    const std::function<bool(MachineId)>& visitor) const {
  OMEGA_CHECK(HasAvailabilityIndex());
  // Under the headroom policy a machine must keep headroom_fraction of its
  // capacity free *beyond* the request, so buckets below that offset can
  // never fit — skip them (best-fit packing piles machines up exactly there).
  const double max_cpus =
      static_cast<double>(buckets_.size() - 1) / bucket_scale_;
  const double headroom_key =
      fullness_ == FullnessPolicy::kHeadroom ? headroom_fraction_ * max_cpus : 0.0;
  const double min_key = EffectiveKey(min_request) + headroom_key;
  auto start = static_cast<size_t>(
      std::clamp<int64_t>(static_cast<int64_t>(min_key * bucket_scale_), 0,
                          static_cast<int64_t>(buckets_.size()) - 1));
  for (size_t b = start; b < buckets_.size(); ++b) {
    for (const MachineId id : buckets_[b]) {
      if (!visitor(id)) {
        return;
      }
    }
  }
}

CommitResult CellState::Commit(std::span<const TaskClaim> claims,
                               ConflictMode conflict_mode, CommitMode commit_mode,
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
    const Machine& m = machines_[claim.machine];
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
        ok = m.seqnum == claim.seqnum_at_placement;
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
  return total_capacity_.cpus > 0.0 ? total_allocated_.cpus / total_capacity_.cpus
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
  for (const Machine& m : machines_) {
    if (m.allocated.IsNegative()) {
      return false;
    }
    if (!m.allocated.FitsIn(m.capacity)) {
      return false;
    }
    sum += m.allocated;
    // The SoA mirrors must be bitwise-equal to the Machine structs (they are
    // maintained by plain assignment, so any divergence is a missed sync).
    if (soa_alloc_cpu_[m.id] != m.allocated.cpus ||
        soa_alloc_mem_[m.id] != m.allocated.mem_gb ||
        soa_fit_cpu_[m.id] != UsableCapacity(m.id).cpus + kResourceEpsilon ||
        soa_fit_mem_[m.id] != UsableCapacity(m.id).mem_gb + kResourceEpsilon) {
      return false;
    }
  }
  const Resources diff = sum - total_allocated_;
  return std::abs(diff.cpus) < 1e-3 && std::abs(diff.mem_gb) < 1e-3;
}

}  // namespace omega
