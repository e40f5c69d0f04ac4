#include "src/mapreduce/mr_scheduler.h"

#include "src/common/logging.h"
#include "src/mapreduce/perf_model.h"

namespace omega {

MapReduceScheduler::MapReduceScheduler(ClusterSimulation& harness,
                                       SchedulerConfig config, Rng rng,
                                       MapReducePolicyOptions policy)
    : OmegaScheduler(harness, std::move(config), rng,
                     std::make_unique<RandomizedFirstFitPlacer>()),
      policy_(policy) {}

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
  OmegaScheduler::BeginAttempt(job);
}

MapReduceSimulation::MapReduceSimulation(const ClusterConfig& config,
                                         const SimOptions& options,
                                         const SchedulerConfig& batch_config,
                                         const SchedulerConfig& service_config,
                                         const MapReducePolicyOptions& policy)
    : OmegaSimulation(config, options, batch_config, service_config,
                      /*num_batch_schedulers=*/1,
                      GeneratorOptions{.generate_mapreduce_specs = true}) {
  SchedulerConfig mr_config = batch_config;
  mr_config.name = "mapreduce";
  mr_scheduler_ = std::make_unique<MapReduceScheduler>(*this, mr_config,
                                                       rng().Fork(), policy);
}

void MapReduceSimulation::SubmitJob(const JobPtr& job) {
  if (job->mapreduce.has_value()) {
    mr_scheduler_->Submit(job);
  } else {
    OmegaSimulation::SubmitJob(job);
  }
}

}  // namespace omega
