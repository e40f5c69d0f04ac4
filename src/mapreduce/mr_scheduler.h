// Specialized MapReduce scheduler (§6).
//
// One more Omega scheduler in an Omega cell. On its first look at a job it
// observes overall utilization (possible because Omega exposes the entire
// cell state to every scheduler), predicts the benefit of scaling the job up
// with the performance model, and apportions idle resources per the
// configured policy. It then places the chosen number of workers exactly as
// OmegaScheduler does: randomized first fit against the shared cell state,
// committed as an optimistic transaction under the configured conflict and
// commit modes, with the resource limit and preemption honoured.
#pragma once

#include <memory>
#include <vector>

#include "src/mapreduce/policy.h"
#include "src/omega/omega_scheduler.h"

namespace omega {

// Per-job decision of the MapReduce scheduler, recorded when the policy
// chooses the worker count: the *potential* speedup of Fig. 15.
struct MapReduceOutcome {
  JobId job = 0;
  int64_t requested_workers = 0;
  // Workers the policy chose (>= requested; placement may still fall short if
  // the cell fills before the job lands).
  int64_t granted_workers = 0;
  double predicted_speedup = 1.0;
};

class MapReduceScheduler final : public OmegaScheduler {
 public:
  MapReduceScheduler(ClusterSimulation& harness, SchedulerConfig config, Rng rng,
                     MapReducePolicyOptions policy);

  const std::vector<MapReduceOutcome>& outcomes() const { return outcomes_; }

 protected:
  void BeginAttempt(const JobPtr& job) override;

 private:
  MapReducePolicyOptions policy_;
  std::vector<MapReduceOutcome> outcomes_;
};

// An Omega cell (one batch and one service scheduler) plus the MapReduce
// scheduler, with MapReduceSpecs attached to generated batch jobs. Jobs
// carrying a MapReduceSpec go to the MapReduce scheduler; every other job is
// routed as in OmegaSimulation.
class MapReduceSimulation final : public OmegaSimulation {
 public:
  MapReduceSimulation(const ClusterConfig& config, const SimOptions& options,
                      const SchedulerConfig& batch_config,
                      const SchedulerConfig& service_config,
                      const MapReducePolicyOptions& policy);

  void SubmitJob(const JobPtr& job) override;

  MapReduceScheduler& mr_scheduler() { return *mr_scheduler_; }

 private:
  std::unique_ptr<MapReduceScheduler> mr_scheduler_;
};

}  // namespace omega
