#include "src/mesos/mesos_simulation.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/logging.h"

namespace omega {

// ---------------------------------------------------------------------------
// MesosFramework

MesosFramework::MesosFramework(MesosSimulation& sim, SchedulerConfig config)
    : QueueScheduler(sim, std::move(config)), sim_(sim) {}

void MesosFramework::BeginAttempt(const JobPtr& job) {
  // The waiting job occupies the framework: nothing else starts until its
  // attempt completes.
  waiting_ = job;
  busy_ = true;
  sim_.allocator().Trigger();
}

void MesosFramework::HandleOffer() {
  OMEGA_CHECK(IsPending());
  const JobPtr job = std::exchange(waiting_, nullptr);
  const uint32_t remaining = job->TasksRemaining();
  const Duration decision = AccountAttemptStart(job, remaining);

  // The framework only sees the offered resources — not the whole cell
  // ("restricted visibility", §3.3/§3.4). Place tasks greedily onto offer
  // slices; the claims are guaranteed to commit because the resources are
  // locked for this framework while the offer is outstanding.
  std::vector<TaskClaim> claims;
  claims.reserve(std::min<uint32_t>(remaining, 1024));
  sim_.allocator().PlaceOnOffer(
      this, remaining, [&](OfferSlice& slice, uint32_t wanted) {
        uint32_t placed = 0;
        while (placed < wanted && job->task_resources.FitsIn(slice.resources)) {
          slice.resources -= job->task_resources;
          claims.push_back(TaskClaim{slice.machine, job->task_resources, 0});
          ++placed;
        }
        return placed;
      });

  sim_.sim().ScheduleAfter(decision,
                           [this, job, claims = std::move(claims)]() mutable {
                             FinishAttempt(job, std::move(claims));
                           });
}

void MesosFramework::FinishAttempt(const JobPtr& job,
                                   std::vector<TaskClaim> claims) {
  // Commit the placed tasks. Offer-locked resources commit cleanly under
  // pessimistic concurrency, with one exception: a machine that failed while
  // the offer was outstanding. The downtime reservation consumes the offered
  // headroom, so the tasks placed there reject — they are lost, exactly like
  // tasks launched onto a dead slave in the real system. Any rejection on a
  // healthy machine would be a genuine offer-lifecycle bug.
  std::vector<TaskClaim> rejected;
  std::vector<TaskClaim> accepted;
  const CommitResult result =
      sim_.cell().Commit(claims, ConflictMode::kFineGrained,
                         CommitMode::kIncremental, &rejected, &accepted);
  for (const TaskClaim& loss : rejected) {
    OMEGA_CHECK(sim_.MachineIsDown(loss.machine))
        << "offer-locked resources must commit cleanly";
  }
  if (!claims.empty()) {
    // The locked share of a failed machine is spent either way, so debit the
    // offer ledger for the full claim set before dropping the losses.
    sim_.allocator().OnOfferResourcesUsed(claims);
  }
  claims = std::move(accepted);
  metrics_.RecordTransaction(result.accepted, 0);
  if (TraceRecorder* trace = sim_.trace()) {
    if (!claims.empty()) {
      trace->TxnCommit(sim_.sim().Now(), TraceTrack(), job->id,
                       result.accepted, 0);
    }
  }

  Resources used;
  for (const TaskClaim& c : claims) {
    used += c.resources;
  }
  const bool gang_by_hoarding =
      config_.commit_mode == CommitMode::kAllOrNothing;
  const bool completes_job =
      job->TasksRemaining() == static_cast<uint32_t>(result.accepted);
  if (!claims.empty()) {
    sim_.allocator().OnResourcesAllocated(this, used);
    if (gang_by_hoarding && !completes_job) {
      // Hoard: the resources stay allocated (and thus idle) until the whole
      // job can start together.
      auto& hoard = hoards_[job->id];
      hoard.insert(hoard.end(), claims.begin(), claims.end());
    } else {
      if (gang_by_hoarding) {
        // The gang is complete: release nothing, start the hoarded tasks
        // alongside this final batch of claims.
        auto it = hoards_.find(job->id);
        if (it != hoards_.end()) {
          claims.insert(claims.end(), it->second.begin(), it->second.end());
          hoards_.erase(it);
        }
      }
      sim_.StartTasks(*job, claims, [this](const TaskClaim& claim) {
        sim_.allocator().OnResourcesFreed(this, claim.resources);
      });
    }
  }

  // Return the unused remainder of the offer to the allocator. Its slices
  // were decremented in place while placing tasks, so they now hold exactly
  // the unused portions.
  sim_.allocator().ReturnOffer(this);
  CompleteAttempt(job, static_cast<uint32_t>(result.accepted),
                  /*had_conflict=*/false);
  sim_.allocator().Trigger();
}

void MesosFramework::ReleaseHoard(const JobPtr& job) {
  auto it = hoards_.find(job->id);
  if (it == hoards_.end()) {
    return;
  }
  for (const TaskClaim& claim : it->second) {
    sim_.cell().Free(claim.machine, claim.resources);
    sim_.allocator().OnMachineChanged(claim.machine);
    sim_.allocator().OnResourcesFreed(this, claim.resources);
  }
  // The placed-task count no longer reflects running tasks; reset so the
  // abandoned job's accounting stays consistent.
  job->tasks_scheduled -= static_cast<uint32_t>(it->second.size());
  hoards_.erase(it);
}

Resources MesosFramework::HoardedResources() const {
  Resources total;
  for (const auto& [id, claims] : hoards_) {
    for (const TaskClaim& claim : claims) {
      total += claim.resources;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// MesosAllocator

namespace {

bool SameBits(const Resources& a, const Resources& b) {
  return std::bit_cast<uint64_t>(a.cpus) == std::bit_cast<uint64_t>(b.cpus) &&
         std::bit_cast<uint64_t>(a.mem_gb) == std::bit_cast<uint64_t>(b.mem_gb);
}

// True if a machine with ledger `ledger` and slice `slice` (= clamp(available
// - ledger)) can be held implicitly: returned unused, the slice leaves the
// ledger bit-identical, and while it is out every other round offers the
// machine nothing. Always true for a +0 ledger, since 0 + a and (0 + a) - a
// are exact; a residue ledger passes when the residue sits in a dimension
// with no spare (DESIGN.md §7, "The offer ledger").
bool HasStableCycle(const Resources& available, const Resources& ledger,
                    const Resources& slice) {
  const Resources locked = ledger + slice;
  return SameBits((locked - slice).ClampNonNegative(), ledger) &&
         (available - locked).ClampNonNegative().IsZero();
}

}  // namespace

void MesosAllocator::RegisterFramework(MesosFramework* framework) {
  const uint32_t num_machines = sim_.cell().NumMachines();
  frameworks_.push_back(framework);
  allocated_.push_back(Resources::Zero());
  offers_.emplace_back().held.Resize(num_machines);
  if (offered_.empty()) {
    offered_.assign(num_machines, Resources::Zero());
    spare_.assign(num_machines, Resources::Zero());
    clean_.Resize(num_machines);
    dirty_.Resize(num_machines);
    // Nothing is cached yet: the first round examines every machine.
    for (MachineId m = 0; m < num_machines; ++m) {
      dirty_.Insert(m);
    }
  }
}

size_t MesosAllocator::IndexOf(const MesosFramework* framework) const {
  for (size_t i = 0; i < frameworks_.size(); ++i) {
    if (frameworks_[i] == framework) {
      return i;
    }
  }
  OMEGA_CHECK(false) << "unregistered framework";
  return 0;
}

double MesosAllocator::DominantShare(const MesosFramework* framework) const {
  return allocated_[IndexOf(framework)].DominantShare(
      sim_.cell().TotalCapacity());
}

MesosFramework* MesosAllocator::PickFramework() {
  const Resources capacity = sim_.cell().TotalCapacity();
  MesosFramework* best = nullptr;
  double best_share = 0.0;
  for (size_t i = 0; i < frameworks_.size(); ++i) {
    if (!frameworks_[i]->IsPending()) {
      continue;
    }
    const double share = allocated_[i].DominantShare(capacity);
    if (best == nullptr || share < best_share) {
      best = frameworks_[i];
      best_share = share;
    }
  }
  return best;
}

void MesosAllocator::Trigger() {
  if (round_scheduled_) {
    return;
  }
  if (PickFramework() == nullptr) {
    return;
  }
  round_scheduled_ = true;
  const SimTime now = sim_.sim().Now();
  SimTime when = now + kDecisionTime;
  const SimTime paced = last_round_ + kMinRoundInterval;
  if (paced > when) {
    when = paced;
  }
  sim_.sim().ScheduleAt(when, [this] {
    round_scheduled_ = false;
    last_round_ = sim_.sim().Now();
    RunAllocationRound();
  });
}

void MesosAllocator::RunAllocationRound() {
  MesosFramework* framework = PickFramework();
  if (framework == nullptr) {
    return;
  }
  ++counters_.rounds;
  // Build the offer: every machine's currently unused and unoffered
  // resources. The simple allocator offers everything available (§3.3 fn 3).
  // Clean machines go over whole, as a set: their slice is the cached spare.
  ResourceOffer& offer = offers_[IndexOf(framework)];
  counters_.holds_transferred += clean_.Count();
  offer.held.Swap(clean_);
  // Dirty machines replay the per-machine arithmetic.
  const CellState& cell = sim_.cell();
  dirty_.ForEach([&](MachineId m) {
    ++counters_.machines_examined;
    const Resources unused = cell.Capacity(m) - cell.Allocated(m);
    const Resources available = (unused - offered_[m]).ClampNonNegative();
    if (available.IsZero()) {
      // Stays zero until the machine or its ledger changes; both re-dirty it.
      dirty_.Erase(m);
    } else if (HasStableCycle(unused, offered_[m], available)) {
      spare_[m] = available;
      offer.held.Insert(m);
      dirty_.Erase(m);
    } else {
      offer.slices.push_back(OfferSlice{m, available});
      offered_[m] += available;
    }
    return true;
  });
  const int64_t num_slices =
      static_cast<int64_t>(offer.slices.size()) + offer.held.Count();
  counters_.slices_offered += num_slices;
  if (observer_) {
    observer_(*framework, OfferEvent::kOffered);
  }
  if (num_slices == 0) {
    // Nothing to offer right now; a task finish or offer return re-triggers.
    return;
  }
  framework->HandleOffer();
  // Other frameworks may still be pending; try to offer whatever remains.
  Trigger();
}

void MesosAllocator::OnResourcesAllocated(const MesosFramework* framework,
                                          const Resources& r) {
  allocated_[IndexOf(framework)] += r;
}

void MesosAllocator::OnResourcesFreed(const MesosFramework* framework,
                                      const Resources& r) {
  Resources& allocated = allocated_[IndexOf(framework)];
  allocated -= r;
  allocated = allocated.ClampNonNegative();
  Trigger();
}

void MesosAllocator::Materialise(MachineId machine) {
  for (ResourceOffer& offer : offers_) {
    if (offer.held.Contains(machine)) {
      offer.held.Erase(machine);
      offered_[machine] += spare_[machine];
      offer.slices.push_back(OfferSlice{machine, spare_[machine]});
      return;
    }
  }
}

void MesosAllocator::OnMachineChanged(MachineId machine) {
  // The held slice keeps the spare cached before the change, exactly what
  // the round computed.
  Materialise(machine);
  MarkDirty(machine);
}

void MesosAllocator::OnOfferResourcesUsed(
    const std::vector<TaskClaim>& claims) {
  for (const TaskClaim& claim : claims) {
    Materialise(claim.machine);
    offered_[claim.machine] -= claim.resources;
    offered_[claim.machine] = offered_[claim.machine].ClampNonNegative();
    MarkDirty(claim.machine);
  }
}

void MesosAllocator::ReturnOffer(const MesosFramework* framework) {
  ResourceOffer& offer = offers_[IndexOf(framework)];
  for (const OfferSlice& slice : offer.slices) {
    Materialise(slice.machine);
    offered_[slice.machine] -= slice.resources;
    offered_[slice.machine] = offered_[slice.machine].ClampNonNegative();
    MarkDirty(slice.machine);
  }
  offer.slices.clear();
  // An unused implicit slice leaves the ledger at offered_[m] (the cycle
  // test) and the allocation unchanged: the machine is clean again.
  clean_.UnionWith(offer.held);
  offer.held.Clear();
  if (observer_) {
    observer_(*framework, OfferEvent::kReturned);
  }
}

Resources MesosAllocator::OfferedOn(MachineId machine) const {
  for (const ResourceOffer& offer : offers_) {
    if (offer.held.Contains(machine)) {
      return offered_[machine] + spare_[machine];
    }
  }
  return offered_[machine];
}

Resources MesosAllocator::TotalOffered() const {
  Resources sum;
  for (MachineId m = 0; m < offered_.size(); ++m) {
    sum += OfferedOn(m);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// MesosSimulation

MesosSimulation::MesosSimulation(const ClusterConfig& config,
                                 const SimOptions& options,
                                 const SchedulerConfig& batch_config,
                                 const SchedulerConfig& service_config)
    : ClusterSimulation(config, options), allocator_(*this) {
  batch_ = std::make_unique<MesosFramework>(*this, batch_config);
  service_ = std::make_unique<MesosFramework>(*this, service_config);
  allocator_.RegisterFramework(batch_.get());
  allocator_.RegisterFramework(service_.get());
}

void MesosSimulation::SubmitJob(const JobPtr& job) {
  FrameworkFor(*job).Submit(job);
  allocator_.Trigger();
}

void MesosSimulation::OnJobAbandoned(const JobPtr& job) {
  FrameworkFor(*job).ReleaseHoard(job);
}

}  // namespace omega
