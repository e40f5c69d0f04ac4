#include "src/omega/omega_scheduler.h"

#include "src/common/logging.h"

namespace omega {

OmegaScheduler::OmegaScheduler(ClusterSimulation& harness,
                               SchedulerConfig config, Rng rng,
                               std::unique_ptr<TaskPlacer> placer)
    : QueueScheduler(harness, std::move(config)),
      placer_(std::move(placer)),
      rng_(rng) {}

void OmegaScheduler::BeginAttempt(const JobPtr& job) {
  const uint32_t remaining = job->TasksRemaining();
  const Duration decision = AccountAttemptStart(job, remaining);

  // Sync: the local copy of cell state is refreshed now; the scheduling
  // algorithm runs against this snapshot. Claims capture per-machine sequence
  // numbers for conflict detection. The transaction spans [now, now+decision].
  auto claims = std::make_shared<std::vector<TaskClaim>>();
  uint32_t target = remaining;
  if (ExceedsResourceLimit(*job)) {
    target = 0;
  }
  uint32_t placed_locally = 0;
  if (target > 0) {
    placed_locally =
        placer_->PlaceTasks(harness_.cell(), *job, target, rng_, claims.get());
  }

  if (placed_locally < target) {
    OMEGA_LOG(kDebug) << config_.name << ": job " << job->id << " ("
                      << JobTypeName(job->type) << ") placed " << placed_locally
                      << "/" << target << " tasks; res=" << job->task_resources
                      << " constraints=" << job->constraints.size()
                      << " attempt=" << job->scheduling_attempts;
  }

  const bool gang = config_.commit_mode == CommitMode::kAllOrNothing;
  if (gang && placed_locally < remaining) {
    // Gang semantics: do not claim a partial placement; retry the whole job
    // once the decision time has been spent (the work is still paid for).
    if (TraceRecorder* trace = harness_.trace()) {
      trace->GangAbort(harness_.sim().Now(), TraceTrack(), job->id,
                       static_cast<int64_t>(claims->size()),
                       /*at_commit=*/false);
    }
    claims->clear();
    placed_locally = 0;
  }

  harness_.sim().ScheduleAfter(decision, [this, job, claims] {
    // Commit: at most one conflicting transaction succeeds; non-conflicting
    // incremental changes are accepted (§3.4).
    const CommitResult result = CommitAndStart(*job, *claims);
    uint32_t placed_total = static_cast<uint32_t>(result.accepted);
    if (config_.enable_preemption && placed_total < job->TasksRemaining()) {
      // Lay claim to resources other schedulers have already acquired: evict
      // strictly-lower-precedence tasks to make room (§3.4). Preemption costs
      // the victims their work, so it only runs when the normal placement
      // could not finish the job.
      std::vector<TaskClaim> preempted_claims;
      int victims = 0;
      const uint32_t still_needed = job->TasksRemaining() - placed_total;
      for (uint32_t t = 0; t < still_needed; ++t) {
        const MachineId m = harness_.PreemptAndPlace(*job, rng_, &victims);
        if (m == kInvalidMachineId) {
          break;
        }
        preempted_claims.push_back(TaskClaim{m, job->task_resources, 0});
      }
      if (!preempted_claims.empty()) {
        // Eviction-won placements are not optimistic transactions: account
        // them separately so they cannot dilute the conflict statistics.
        metrics_.RecordPreemption(static_cast<int>(preempted_claims.size()),
                                  victims);
        StartPlacedTasks(*job, preempted_claims);
        placed_total += static_cast<uint32_t>(preempted_claims.size());
      }
    }
    CompleteAttempt(job, placed_total, /*had_conflict=*/result.conflicted > 0);
  });
}

OmegaSimulation::OmegaSimulation(const ClusterConfig& config,
                                 const SimOptions& options,
                                 const SchedulerConfig& batch_config,
                                 const SchedulerConfig& service_config,
                                 uint32_t num_batch_schedulers,
                                 GeneratorOptions generator_options,
                                 PlacerFactory placer_factory)
    : ClusterSimulation(config, options, generator_options) {
  OMEGA_CHECK(num_batch_schedulers >= 1);
  if (batch_config.enable_preemption || service_config.enable_preemption) {
    TrackRunningTasks();  // victim selection reads the registry
  }
  if (placer_factory == nullptr) {
    placer_factory = [] {
      return std::make_unique<RandomizedFirstFitPlacer>();
    };
  }
  for (uint32_t i = 0; i < num_batch_schedulers; ++i) {
    SchedulerConfig cfg = batch_config;
    cfg.name = batch_config.name + "-" + std::to_string(i);
    batch_schedulers_.push_back(std::make_unique<OmegaScheduler>(
        *this, cfg, rng().Fork(), placer_factory()));
  }
  service_scheduler_ = std::make_unique<OmegaScheduler>(
      *this, service_config, rng().Fork(), placer_factory());
}

void OmegaSimulation::SubmitJob(const JobPtr& job) {
  if (job->type == JobType::kService) {
    service_scheduler_->Submit(job);
    return;
  }
  // Batch scheduling work is load-balanced across the schedulers with a
  // simple hash of the job identifier (§4.3).
  const uint64_t h = job->id * 0x9e3779b97f4a7c15ULL;
  const size_t idx = static_cast<size_t>(h % batch_schedulers_.size());
  batch_schedulers_[idx]->Submit(job);
}

double OmegaSimulation::MeanBatchBusyness() const {
  double sum = 0.0;
  for (const auto& s : batch_schedulers_) {
    sum += s->metrics().Busyness(EndTime()).median;
  }
  return sum / static_cast<double>(batch_schedulers_.size());
}

double OmegaSimulation::MeanBatchConflictFraction() const {
  double sum = 0.0;
  for (const auto& s : batch_schedulers_) {
    sum += s->metrics().ConflictFraction(EndTime()).mean;
  }
  return sum / static_cast<double>(batch_schedulers_.size());
}

double OmegaSimulation::MeanBatchWait() const {
  double weighted = 0.0;
  int64_t jobs = 0;
  for (const auto& s : batch_schedulers_) {
    const int64_t n = s->metrics().JobsWaited(JobType::kBatch);
    if (n > 0) {  // MeanWait is NaN when no jobs waited; NaN * 0 poisons
      weighted +=
          s->metrics().MeanWait(JobType::kBatch) * static_cast<double>(n);
      jobs += n;
    }
  }
  return jobs > 0 ? weighted / static_cast<double>(jobs) : 0.0;
}

}  // namespace omega
