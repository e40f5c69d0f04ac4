// Shared-state (Omega) scheduling (§3.4, §4.3).
//
// Each scheduler has full visibility of the cell and competes in a
// free-for-all: it syncs a local copy of cell state, runs its placement
// algorithm against that snapshot for the decision time, then attempts an
// atomic commit. Optimistic concurrency control detects conflicts at commit;
// the scheduler then resyncs and retries the remaining tasks.
//
// Transactions are incremental by default (accept all but the conflicting
// changes); all-or-nothing commits implement gang scheduling. Conflict
// detection is fine-grained (re-check fit) or coarse-grained (per-machine
// sequence numbers), per §5.2.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/scheduler/cluster_simulation.h"
#include "src/scheduler/placement.h"
#include "src/scheduler/queue_scheduler.h"

namespace omega {

class OmegaScheduler : public QueueScheduler {
 public:
  // `placer` implements the scheduling algorithm run against the local copy
  // of cell state (randomized first fit in the lightweight simulator; the
  // constraint-aware scoring algorithm in the high-fidelity one).
  OmegaScheduler(ClusterSimulation& harness, SchedulerConfig config, Rng rng,
                 std::unique_ptr<TaskPlacer> placer);

 protected:
  void BeginAttempt(const JobPtr& job) override;

 private:
  std::unique_ptr<TaskPlacer> placer_;
  Rng rng_;
};

// Builds the placement algorithm each scheduler runs. The lightweight
// simulator installs randomized first fit; the high-fidelity simulation
// installs the constraint-aware scoring placer.
using PlacerFactory = std::function<std::unique_ptr<TaskPlacer>()>;

// Harness: N batch schedulers (load-balanced by job-id hash, §4.3) plus one
// service scheduler, all operating on the shared cell state.
class OmegaSimulation : public ClusterSimulation {
 public:
  OmegaSimulation(const ClusterConfig& config, const SimOptions& options,
                  const SchedulerConfig& batch_config,
                  const SchedulerConfig& service_config,
                  uint32_t num_batch_schedulers = 1,
                  GeneratorOptions generator_options = {},
                  PlacerFactory placer_factory = nullptr);

  void SubmitJob(const JobPtr& job) override;

  uint32_t NumBatchSchedulers() const {
    return static_cast<uint32_t>(batch_schedulers_.size());
  }
  OmegaScheduler& batch_scheduler(uint32_t i) { return *batch_schedulers_[i]; }
  OmegaScheduler& service_scheduler() { return *service_scheduler_; }

  // Aggregates across the batch schedulers (means of per-scheduler values).
  double MeanBatchBusyness() const;
  double MeanBatchConflictFraction() const;
  double MeanBatchWait() const;

 private:
  std::vector<std::unique_ptr<OmegaScheduler>> batch_schedulers_;
  std::unique_ptr<OmegaScheduler> service_scheduler_;
};

}  // namespace omega

