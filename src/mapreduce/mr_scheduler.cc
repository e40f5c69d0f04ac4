#include "src/mapreduce/mr_scheduler.h"

#include "src/common/logging.h"
#include "src/mapreduce/perf_model.h"

namespace omega {

MapReduceScheduler::MapReduceScheduler(ClusterSimulation& harness,
                                       SchedulerConfig config, Rng rng,
                                       MapReducePolicyOptions policy)
    : QueueScheduler(harness, std::move(config)), rng_(rng), policy_(policy) {}

void MapReduceScheduler::BeginAttempt(const JobPtr& job) {
  OMEGA_CHECK(job->mapreduce.has_value());
  if (job->scheduling_attempts == 0) {
    // First look at the job: observe the overall cluster utilization (full
    // cell-state visibility) and choose the worker count per policy.
    const int64_t workers = ChooseWorkers(policy_, *job, harness_.cell());
    job->num_tasks = static_cast<uint32_t>(workers);
    job->task_duration = PredictCompletionTime(*job->mapreduce, workers);
    // Record the *potential* speedup the predictive model chose (Fig. 15
    // plots potential per-job speedups, known at decision time).
    outcomes_.push_back(MapReduceOutcome{
        job->id, job->mapreduce->requested_workers, workers,
        PredictSpeedup(*job->mapreduce, workers)});
  }

  const uint32_t remaining = job->TasksRemaining();
  const Duration decision = AccountAttemptStart(job, remaining);

  // Workers are placed with ordinary optimistic transactions against the
  // shared cell state, exactly like any other Omega scheduler.
  auto claims = std::make_shared<std::vector<TaskClaim>>();
  placer_.PlaceTasks(harness_.cell(), *job, remaining, rng_, claims.get());

  harness_.sim().ScheduleAfter(decision, [this, job, claims] {
    const CommitResult result = CommitAndStart(*job, *claims);
    CompleteAttempt(job, static_cast<uint32_t>(result.accepted),
                    result.conflicted > 0);
  });
}

MapReduceSimulation::MapReduceSimulation(const ClusterConfig& config,
                                         const SimOptions& options,
                                         const SchedulerConfig& batch_config,
                                         const SchedulerConfig& service_config,
                                         const MapReducePolicyOptions& policy)
    : ClusterSimulation(config, options,
                        [] {
                          GeneratorOptions g;
                          g.generate_mapreduce_specs = true;
                          return g;
                        }()) {
  batch_scheduler_ = std::make_unique<OmegaScheduler>(
      *this, batch_config, rng().Fork(),
      std::make_unique<RandomizedFirstFitPlacer>());
  service_scheduler_ = std::make_unique<OmegaScheduler>(
      *this, service_config, rng().Fork(),
      std::make_unique<RandomizedFirstFitPlacer>());
  SchedulerConfig mr_config = batch_config;
  mr_config.name = "mapreduce";
  mr_scheduler_ = std::make_unique<MapReduceScheduler>(*this, mr_config,
                                                       rng().Fork(), policy);
}

void MapReduceSimulation::SubmitJob(const JobPtr& job) {
  if (job->mapreduce.has_value()) {
    mr_scheduler_->Submit(job);
  } else if (job->type == JobType::kService) {
    service_scheduler_->Submit(job);
  } else {
    batch_scheduler_->Submit(job);
  }
}

}  // namespace omega
