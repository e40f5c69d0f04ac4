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
#include <memory>
#include <string>
#include <map>
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
  void HandleOffer(ResourceOffer offer);

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
  void FinishAttempt(const JobPtr& job, ResourceOffer offer,
                     std::vector<TaskClaim> claims);
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
  void ReturnOffer(const ResourceOffer& offer);

  // Unlocks the offered share consumed by committed claims (the machine's
  // availability already dropped by the same amount, so leaving it in
  // `offered_` would double-count it as locked forever).
  void OnOfferResourcesUsed(const std::vector<TaskClaim>& claims);

  // Offered (locked) resources on `machine`.
  const Resources& OfferedOn(MachineId machine) const { return offered_[machine]; }
  Resources TotalOffered() const;
  double DominantShare(const MesosFramework* framework) const;

 private:
  void RunAllocationRound();
  // DRF argmin: the pending framework with the lowest dominant share,
  // earliest registration order on ties.
  MesosFramework* PickFramework();

  MesosSimulation& sim_;
  Duration decision_time_;
  Duration min_round_interval_;
  std::vector<MesosFramework*> frameworks_;
  std::vector<Resources> allocated_;  // per framework, for DRF
  std::vector<Resources> offered_;    // per machine, locked in offers
  bool round_scheduled_ = false;
  SimTime last_round_;
};

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
  void OnTaskFreed() override { allocator_.Trigger(); }

 private:
  friend class MesosFramework;
  friend class MesosAllocator;

  MesosAllocator allocator_;
  std::unique_ptr<MesosFramework> batch_;
  std::unique_ptr<MesosFramework> service_;
};

}  // namespace omega

