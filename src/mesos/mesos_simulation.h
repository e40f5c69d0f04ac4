// Two-level scheduling modeled on Mesos (§3.3, §4.2).
//
// A centralized resource allocator dynamically partitions the cluster by
// making resource offers to scheduler frameworks. Only one framework sees a
// given resource at a time — it effectively holds a lock on the offered
// resources for the duration of its scheduling attempt, so concurrency
// control is pessimistic. The allocator aims at dominant resource fairness
// (DRF) by offering all available resources to the framework furthest below
// its dominant share.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/mesos/offer.h"
#include "src/scheduler/cluster_simulation.h"
#include "src/scheduler/config.h"
#include "src/scheduler/metrics.h"

namespace omega {

class MesosSimulation;

// A scheduler framework: receives offers, schedules its queued jobs onto the
// offered resources, and returns what it does not use.
//
// With `config.commit_mode == kAllOrNothing` the framework gang-schedules by
// *hoarding* (§3.3): accepted resources are held idle until the whole job has
// been placed, only then do its tasks start. Hoarding wastes the held
// resources in the meantime and can deadlock against another hoarding
// framework; the attempt limit eventually breaks the deadlock by abandoning
// the job and releasing its hoard.
class MesosFramework {
 public:
  MesosFramework(MesosSimulation& sim, SchedulerConfig config, JobType type);

  void Submit(const JobPtr& job);

  // Allocator delivers an offer; the framework starts a scheduling attempt
  // for its head job. Must only be called when IsPending().
  void HandleOffer();

  // Pending = has queued work and is able to receive an offer.
  bool IsPending() const { return !busy_ && !queue_.empty(); }
  bool busy() const { return busy_; }
  JobType type() const { return type_; }
  const std::string& name() const { return config_.name; }
  SchedulerMetrics& metrics() { return metrics_; }
  const SchedulerMetrics& metrics() const { return metrics_; }
  size_t QueueDepth() const { return queue_.size(); }

  // Resources currently hoarded for incomplete gang-scheduled jobs.
  Resources HoardedResources() const;

 private:
  void FinishAttempt(const JobPtr& job, std::vector<TaskClaim> claims);
  void ReleaseHoard(const JobPtr& job);
  // Trace track for this framework, registered lazily under config_.name.
  uint16_t TraceTrack();

  MesosSimulation& sim_;
  SchedulerConfig config_;
  JobType type_;
  SchedulerMetrics metrics_;
  std::deque<JobPtr> queue_;
  bool busy_ = false;
  int32_t trace_track_ = -1;  // lazily registered; -1 = not yet
  // Gang scheduling by hoarding: claims held per incomplete job. Ordered
  // by JobId so HoardedResources() sums in a deterministic order (the
  // floating-point total feeds reported metrics; see det-unordered-iter
  // in DESIGN.md §9).
  std::map<JobId, std::vector<TaskClaim>> hoards_;
};

// The centralized resource allocator. Decision time is modeled as 1 ms (§4.2:
// "The DRF algorithm ... is quite fast"); successive allocation rounds are
// additionally paced by `min_round_interval`, matching Mesos's batched
// allocation cycle (and bounding simulation cost on large cells).
//
// A round's work is proportional to the machines that changed since the
// last round, not to the cell: a machine whose unused offer would return its
// ledger bit-identical (always so for a +0 ledger) is offered and returned
// implicitly, as part of a set (DESIGN.md §7, "The offer ledger"). Offers are
// bit-identical to recomputing every machine's clamp(available - offered)
// each round.
class MesosAllocator {
 public:
  explicit MesosAllocator(MesosSimulation& sim,
                          Duration decision_time = Duration::FromMillis(1),
                          Duration min_round_interval = Duration::FromMillis(100));

  void RegisterFramework(MesosFramework* framework);

  // Wakes the allocator: if any framework is pending and unoffered resources
  // exist, schedule an allocation round.
  void Trigger();

  // Framework bookkeeping for DRF and offer locking.
  void OnResourcesAllocated(const MesosFramework* framework, const Resources& r);
  void OnResourcesFreed(const MesosFramework* framework, const Resources& r);

  // Walks `framework`'s outstanding offer in ascending machine order until
  // `tasks` tasks are placed. `place(slice, wanted)` places up to `wanted`
  // tasks on `slice`, decrementing `slice.resources` per task, and returns
  // how many it placed.
  template <typename Place>
  void PlaceOnOffer(const MesosFramework* framework, uint32_t tasks,
                    Place&& place);

  // Unlocks the offered share consumed by committed claims (the machine's
  // availability already dropped by the same amount, so leaving it in the
  // ledger would double-count it as locked forever).
  void OnOfferResourcesUsed(const std::vector<TaskClaim>& claims);

  // Returns the unused remainder of `framework`'s offer (§4.2: "Resources not
  // used at the end of scheduling a job are returned").
  void ReturnOffer(const MesosFramework* framework);

  // Reports a change to `machine`'s allocation made outside a framework's
  // own commit (task ends, failures, repairs, preemption, hoard releases).
  void OnMachineChanged(MachineId machine);

  // Offered (locked) resources on `machine`.
  Resources OfferedOn(MachineId machine) const;
  Resources TotalOffered() const;
  double DominantShare(const MesosFramework* framework) const;

  // Ledger events, for tests that diff the allocator against a reference.
  enum class OfferEvent { kOffered, kReturned };
  // Called after each round that picked a framework, before the framework
  // places tasks (the offer may be empty), and after each ReturnOffer.
  using OfferObserver =
      std::function<void(const MesosFramework&, OfferEvent)>;
  void SetOfferObserver(OfferObserver observer) {
    observer_ = std::move(observer);
  }

  const OfferCounters& counters() const { return counters_; }

 private:
  void RunAllocationRound();
  // DRF argmin: the pending framework with the lowest dominant share,
  // earliest registration order on ties.
  MesosFramework* PickFramework();
  size_t IndexOf(const MesosFramework* framework) const;
  // Gives a machine held implicitly by some framework its explicit slice and
  // ledger entry (offered + spare). Every ledger update outside a round calls
  // it first.
  void Materialise(MachineId machine);
  void MarkDirty(MachineId machine) {
    clean_.Erase(machine);
    dirty_.Insert(machine);
  }

  MesosSimulation& sim_;
  Duration decision_time_;
  Duration min_round_interval_;
  std::vector<MesosFramework*> frameworks_;
  std::vector<Resources> allocated_;  // per framework, for DRF
  std::vector<ResourceOffer> offers_;  // per framework, outstanding
  // Per machine. `offered_` is the exact ledger, except that a machine an
  // offer holds implicitly has `offered_ + spare_` locked; `spare_` is the
  // cached clamp(available - offered_) of clean and held machines.
  std::vector<Resources> offered_;
  std::vector<Resources> spare_;
  // Clean: spare non-zero, allocation and ledger unchanged since spare_ was
  // cached, and an unused offer of it would leave the ledger bit-identical.
  // Dirty: must be recomputed by the next round. A machine in neither (and
  // held by no offer) has nothing to offer until it or its ledger changes.
  MachineSet clean_;
  MachineSet dirty_;
  OfferCounters counters_;
  OfferObserver observer_;
  bool round_scheduled_ = false;
  SimTime last_round_;
};

template <typename Place>
void MesosAllocator::PlaceOnOffer(const MesosFramework* framework,
                                  uint32_t tasks, Place&& place) {
  ResourceOffer& offer = offers_[IndexOf(framework)];
  // The round appended the explicit slices in ascending order; merge the
  // held machines into that order. Materialised slices go after them.
  const size_t num_explicit = offer.slices.size();
  size_t next = 0;
  auto place_explicit_below = [&](MachineId bound) {
    while (tasks > 0 && next < num_explicit &&
           offer.slices[next].machine < bound) {
      const uint32_t n = place(offer.slices[next++], tasks);
      counters_.slices_consumed += n > 0 ? 1 : 0;
      tasks -= n;
    }
  };
  offer.held.ForEach([&](MachineId m) {
    place_explicit_below(m);
    if (tasks == 0) {
      return false;
    }
    OfferSlice slice{m, spare_[m]};
    const uint32_t n = place(slice, tasks);
    if (n > 0) {
      ++counters_.slices_consumed;
      tasks -= n;
      offer.held.Erase(m);
      offered_[m] += spare_[m];
      offer.slices.push_back(slice);
    }
    return tasks > 0;
  });
  place_explicit_below(kInvalidMachineId);
}

class MesosSimulation final : public ClusterSimulation {
 public:
  MesosSimulation(const ClusterConfig& config, const SimOptions& options,
                  const SchedulerConfig& batch_config,
                  const SchedulerConfig& service_config);

  void SubmitJob(const JobPtr& job) override;

  MesosFramework& batch_framework() { return *batch_; }
  MesosFramework& service_framework() { return *service_; }
  MesosAllocator& allocator() { return allocator_; }

  int64_t TotalJobsAbandoned() const {
    return batch_->metrics().JobsAbandonedTotal() +
           service_->metrics().JobsAbandonedTotal();
  }

 protected:
  void OnMachineChanged(MachineId machine, bool wake) override {
    allocator_.OnMachineChanged(machine);
    if (wake) {
      allocator_.Trigger();
    }
  }

 private:
  friend class MesosFramework;
  friend class MesosAllocator;

  MesosAllocator allocator_;
  std::unique_ptr<MesosFramework> batch_;
  std::unique_ptr<MesosFramework> service_;
};

}  // namespace omega

