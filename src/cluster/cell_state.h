// The shared cell state: the master copy of all resource allocations (§3.4).
//
// CellState is the "persistent data store with validation code" at the heart
// of the Omega architecture. Schedulers place tasks against a (logical) local
// copy and then commit claims in an atomic transaction; the commit applies
// optimistic concurrency control with either fine-grained (per-machine
// resource re-check) or coarse-grained (sequence number) conflict detection,
// and either incremental or all-or-nothing (gang) acceptance semantics (§5.2).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "src/cluster/machine.h"
#include "src/cluster/pending_claims.h"
#include "src/cluster/resources.h"

namespace omega {

// How the validation code decides whether a machine can accept a new claim.
// The lightweight simulator uses exact capacity (kExact); the high-fidelity
// simulator models the production scheduler's stricter notion of fullness by
// reserving a headroom fraction of every machine (kHeadroom), which makes
// machines fill "earlier" and produces more conflicts (§5, simulator deltas).
enum class FullnessPolicy {
  kExact,
  kHeadroom,
};

// Conflict detection granularity for transaction commit (§5.2).
enum class ConflictMode {
  kFineGrained,   // conflict only if the claim no longer fits
  kCoarseGrained, // conflict if the machine changed at all since placement
};

// Transaction acceptance semantics (§3.4, §5.2).
enum class CommitMode {
  kIncremental,   // accept all but the conflicting claims
  kAllOrNothing,  // gang scheduling: reject the whole transaction on conflict
};

// One task's claim on one machine, captured at placement time.
struct TaskClaim {
  MachineId machine = kInvalidMachineId;
  Resources resources;
  // Machine sequence number observed when the placing scheduler synced its
  // local copy of cell state.
  uint64_t seqnum_at_placement = 0;
};

// Result of committing a transaction.
struct CommitResult {
  int accepted = 0;
  int conflicted = 0;

  bool AllAccepted() const { return conflicted == 0; }
};

class CellState {
 public:
  // Builds a homogeneous cell of `num_machines` machines with the given
  // per-machine capacity. Failure domains group `machines_per_domain`
  // consecutive machines (racks).
  CellState(uint32_t num_machines, const Resources& machine_capacity,
            FullnessPolicy fullness = FullnessPolicy::kExact,
            double headroom_fraction = 0.0, uint32_t machines_per_domain = 40);

  // Builds a heterogeneous cell with the given per-machine capacities (the
  // high-fidelity simulator's "machines: actual data", Table 2).
  CellState(std::vector<Resources> machine_capacities,
            FullnessPolicy fullness = FullnessPolicy::kExact,
            double headroom_fraction = 0.0, uint32_t machines_per_domain = 40);

  uint32_t NumMachines() const {
    return static_cast<uint32_t>(slots_.size());
  }

  // A by-value snapshot of machine `id`; its `attributes` view stays valid
  // until the next SetAttributes(id, ...).
  Machine machine(MachineId id) const {
    const MachineInfo& info = info_[id];
    return {id,          info.capacity,       slots_[id].allocated,
            seqnum_[id], info.failure_domain, info.attributes};
  }

  // Per-field reads for the hot paths, which need one field of many machines.
  Resources Capacity(MachineId id) const { return info_[id].capacity; }
  Resources Allocated(MachineId id) const { return slots_[id].allocated; }
  uint64_t Seqnum(MachineId id) const { return seqnum_[id]; }
  int32_t FailureDomain(MachineId id) const { return info_[id].failure_domain; }
  std::span<const int32_t> Attributes(MachineId id) const {
    return info_[id].attributes;
  }

  // Sets machine `id`'s placement-constraint attributes (§5).
  void SetAttributes(MachineId id, std::vector<int32_t> attributes) {
    info_[id].attributes = std::move(attributes);
  }

  FullnessPolicy fullness_policy() const { return fullness_; }
  double headroom_fraction() const { return headroom_fraction_; }

  // Effective capacity a claim may use on `id` under the fullness policy.
  Resources UsableCapacity(MachineId id) const;

  // Validation predicate: can `request` be placed on machine `id` right now?
  bool CanFit(MachineId id, const Resources& request) const;

  // As CanFit, but with `extra` already hypothetically allocated (pending
  // same-transaction claims on the same machine).
  bool CanFitWithPending(MachineId id, const Resources& request,
                         const Resources& extra) const;

  // Immediately allocates/frees (bumping the machine's sequence number).
  // Allocate CHECK-fails if the claim does not fit; Free CHECK-fails if it
  // would drive the allocation negative.
  void Allocate(MachineId id, Resources request);
  void Free(MachineId id, Resources request);

  // Atomically commits a set of claims placed against an earlier snapshot.
  // Claims are decided against the current state plus the claims accepted
  // before them in this transaction (same-transaction claims never conflict
  // on sequence numbers), then the accepted ones are applied one Allocate
  // each, in claim order (§3.4). Conflicting claims (per `conflict_mode`,
  // `commit_mode`) are reported in `rejected` and accepted claims in
  // `accepted`, each in claim order, when non-null.
  CommitResult Commit(std::span<const TaskClaim> claims,
                      ConflictMode conflict_mode, CommitMode commit_mode,
                      std::vector<TaskClaim>* rejected = nullptr,
                      std::vector<TaskClaim>* accepted = nullptr);

  // Observer invoked after every non-empty Commit with the transaction's
  // claims and outcome — the state-store-side tracing seam (every writer
  // passes through here: monolithic, Mesos frameworks, Omega schedulers).
  // Null by default; the observer must not mutate cell state.
  using CommitObserver =
      std::function<void(std::span<const TaskClaim>, const CommitResult&)>;
  void SetCommitObserver(CommitObserver observer) {
    commit_observer_ = std::move(observer);
  }

  Resources TotalCapacity() const { return total_capacity_; }
  Resources TotalAllocated() const { return total_allocated_; }
  Resources TotalAvailable() const {
    return total_capacity_ - total_allocated_;
  }

  double CpuUtilization() const;
  double MemUtilization() const;
  // max(cpu, mem) utilization — the "overall cluster utilization" the
  // MapReduce global-cap policy thresholds on (§6.1).
  double MaxUtilization() const;

  // Verifies internal consistency (per-machine allocations within capacity,
  // their sum vs. the totals); used by tests and debug builds. Returns true
  // when consistent.
  bool CheckInvariants() const;

  // --- first-fit scan (DESIGN.md §11) ---
  //
  // First machine id in [begin, end) whose current allocation can fit
  // `request` under the fullness policy, ignoring pending claims and
  // placement constraints — the same predicate as CanFit, evaluated as an
  // 8-wide chunked sweep over the allocation slots, so the no-fit scans that
  // dominate near-full placement stay branch-light.
  // tests/reference_cell.h states the same scan as a plain per-machine loop.
  // `end` is clamped to the cell.
  // Returns kInvalidMachineId if no machine in the range fits. Callers
  // re-check candidates with constraints and pending claims: a machine this
  // sweep skips fails those stricter checks too (pending only shrinks
  // availability), so using it as a pre-filter changes no placement decision.
  MachineId FindFirstFit(MachineId begin, MachineId end,
                         const Resources& request) const;

  // --- availability index ---
  //
  // An optional bucketed index of machines by *effective* availability — the
  // binding dimension min(avail_cpu, avail_mem / mem-per-cpu-ratio), in CPU
  // units — so that best-fit placement ("tightest feasible machine first")
  // runs in O(candidates) instead of O(machines), and machines that are loose
  // in CPU but exhausted in memory sort as tight. The high-fidelity scoring
  // placer uses it; the lightweight randomized first fit does not need it.

  void EnableAvailabilityIndex(uint32_t num_buckets = 64);
  bool HasAvailabilityIndex() const { return !buckets_.empty(); }

  // Effective availability key of a request: the CPU-unit requirement in the
  // binding dimension. Machines in buckets below EffectiveKey(request) cannot
  // fit the request in at least one dimension.
  double EffectiveKey(const Resources& r) const;

  // The best-fit walk for `min_request` reads buckets
  // AvailabilityStartBucket(min_request) .. NumAvailabilityBuckets() - 1 in
  // order, each bucket's machines in stored order: increasing effective
  // availability, tightest feasible bucket first. Buckets below the start
  // hold no machine able to fit `min_request`. The order within a bucket
  // changes only through Allocate and Free.
  size_t AvailabilityStartBucket(const Resources& min_request) const;
  size_t NumAvailabilityBuckets() const { return buckets_.size(); }
  std::span<const MachineId> AvailabilityBucket(size_t bucket) const {
    return buckets_[bucket];
  }

 private:
  size_t BucketFor(MachineId id) const;
  void IndexRemove(MachineId id);
  void IndexInsert(MachineId id);
  void IndexUpdate(MachineId id, size_t old_bucket);

  // Static per-machine data, fixed at construction except the attributes.
  struct MachineInfo {
    Resources capacity;
    int32_t failure_domain = 0;
    std::vector<int32_t> attributes;
  };

  // The master copy of per-machine state, indexed by id (DESIGN.md §11).
  // A slot pairs the machine's allocation (the only copy; Allocate and Free
  // are its only writers) with its fit limit UsableCapacity + kResourceEpsilon
  // per component, a constant since capacity and the fullness policy never
  // change. Every fit test — CanFitWithPending's and FindFirstFit's sweep —
  // then reads one 32-byte slot and compares, with no recomputation.
  struct Slot {
    Resources allocated;
    Resources fit;
  };
  std::vector<Slot> slots_;
  std::vector<uint64_t> seqnum_;
  std::vector<MachineInfo> info_;

  Resources total_capacity_;
  Resources total_allocated_;
  FullnessPolicy fullness_;
  double headroom_fraction_;

  CommitObserver commit_observer_;
  // Commit scratch, reused across transactions: the per-claim accept flags
  // and the pending same-transaction sums (the placers' PendingClaims: an
  // array read per claim, and a new transaction is an O(1) epoch bump).
  std::vector<char> accept_scratch_;
  PendingClaims pending_scratch_;

  // Availability index state (empty when disabled).
  std::vector<std::vector<MachineId>> buckets_;
  std::vector<uint32_t> bucket_of_;    // per machine
  std::vector<uint32_t> pos_in_bucket_;  // per machine
  double bucket_scale_ = 0.0;          // buckets per effective cpu
  double mem_per_cpu_ = 4.0;           // GB per core, for the effective key
};

}  // namespace omega

