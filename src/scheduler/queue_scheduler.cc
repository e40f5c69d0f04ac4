#include "src/scheduler/queue_scheduler.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"

namespace omega {

QueueScheduler::QueueScheduler(ClusterSimulation& harness, SchedulerConfig config)
    : harness_(harness), config_(std::move(config)) {
  harness_.schedulers_.push_back(this);
}

QueueScheduler::~QueueScheduler() { std::erase(harness_.schedulers_, this); }

void QueueScheduler::Submit(const JobPtr& job) {
  if (config_.admission_limit.has_value() &&
      queue_.size() >= *config_.admission_limit) {
    job->abandoned = true;
    metrics_.RecordJobAbandoned(job->type);
    harness_.OnJobAbandoned(job);
    return;
  }
  queue_.push_back(job);
  TryStartNext();
}

void QueueScheduler::TryStartNext() {
  while (!busy_ && !queue_.empty()) {
    JobPtr job = std::move(queue_.front());
    queue_.pop_front();
    if (job->cancelled) {
      continue;  // withdrawn by the submitter while queued
    }
    BeginAttempt(job);
    return;
  }
}

uint16_t QueueScheduler::TraceTrack() {
  if (trace_track_ < 0) {
    TraceRecorder* trace = harness_.trace();
    // The cell's trace scope keeps same-named schedulers in different cells
    // on distinct Perfetto tracks (empty for single-cell runs).
    trace_track_ =
        trace ? trace->RegisterTrack(harness_.trace_scope() + config_.name) : 0;
  }
  return static_cast<uint16_t>(trace_track_);
}

Duration QueueScheduler::AccountAttemptStart(const JobPtr& job,
                                             uint32_t tasks_in_attempt) {
  const SimTime now = harness_.sim().Now();
  if (!job->first_attempt_time.has_value()) {
    job->first_attempt_time = now;
    metrics_.RecordJobWait(job->type, now - job->submit_time);
  }
  ++job->scheduling_attempts;
  Duration d = config_.TimesFor(job->type).ForTasks(tasks_in_attempt);
  if (d.micros() <= 0) {
    d = Duration(1);  // keep simulated time strictly advancing
  }
  metrics_.AddBusyInterval(now, now + d, pending_conflict_retry_);
  pending_conflict_retry_ = false;
  busy_ = true;
  if (TraceRecorder* trace = harness_.trace()) {
    trace->AttemptBegin(now, TraceTrack(), job->id, job->scheduling_attempts,
                        tasks_in_attempt);
  }
  return d;
}

bool QueueScheduler::ExceedsResourceLimit(const Job& job) const {
  if (!config_.resource_limit.has_value()) {
    return false;
  }
  return !(held_ + job.TotalRequest()).FitsIn(*config_.resource_limit);
}

void QueueScheduler::StartPlacedTasks(const Job& job,
                                      std::span<const TaskClaim> claims) {
  if (!config_.resource_limit.has_value()) {
    harness_.StartTasks(job, claims);
    return;
  }
  for (const TaskClaim& claim : claims) {
    held_ += claim.resources;
  }
  harness_.StartTasks(job, claims, [this](const TaskClaim& claim) {
    held_ -= claim.resources;
    held_ = held_.ClampNonNegative();
  });
}

CommitResult QueueScheduler::CommitAndStart(const Job& job,
                                            std::span<const TaskClaim> claims) {
  std::vector<TaskClaim> rejected;
  std::vector<TaskClaim> accepted;
  const CommitResult result =
      harness_.cell().Commit(claims, config_.conflict_mode, config_.commit_mode,
                             &rejected, &accepted);
  metrics_.RecordTransaction(result.accepted, result.conflicted);
  if (TraceRecorder* trace = harness_.trace()) {
    const SimTime now = harness_.sim().Now();
    if (!claims.empty()) {
      trace->TxnCommit(now, TraceTrack(), job.id, result.accepted,
                       result.conflicted);
    }
    for (const TaskClaim& claim : rejected) {
      trace->ClaimConflict(now, TraceTrack(), job.id, claim.machine,
                           claim.seqnum_at_placement,
                           harness_.cell().Seqnum(claim.machine));
    }
    if (config_.commit_mode == CommitMode::kAllOrNothing &&
        result.conflicted > 0) {
      trace->GangAbort(now, TraceTrack(), job.id, result.conflicted,
                       /*at_commit=*/true);
    }
  }
  if (!accepted.empty()) {
    StartPlacedTasks(job, accepted);
  }
  return result;
}

void QueueScheduler::CompleteAttempt(const JobPtr& job, uint32_t tasks_placed,
                                     bool had_conflict) {
  job->tasks_scheduled += tasks_placed;
  OMEGA_CHECK(job->tasks_scheduled <= job->num_tasks);
  if (had_conflict) {
    ++job->conflicted_attempts;
  }
  const SimTime now = harness_.sim().Now();
  if (TraceRecorder* trace = harness_.trace()) {
    trace->AttemptEnd(now, TraceTrack(), job->id, tasks_placed, had_conflict);
  }
  busy_ = false;
  if (job->cancelled) {
    // Withdrawn by the submitter mid-attempt (federation spillover). Tasks
    // this attempt placed keep running, but the job neither retries nor
    // counts as scheduled/abandoned here — its remaining work was re-issued
    // elsewhere as a clone.
    TryStartNext();
    return;
  }
  if (job->FullyScheduled()) {
    metrics_.RecordJobScheduled(now, job->type, job->scheduling_attempts,
                                job->conflicted_attempts);
    harness_.OnJobFullyScheduled(job);
    TryStartNext();
    return;
  }
  if (job->scheduling_attempts >= config_.max_attempts) {
    // The 1,000-attempt retry limit (§4): abandon the job with its remaining
    // tasks unscheduled. Already-placed tasks keep running.
    job->abandoned = true;
    metrics_.RecordJobAbandoned(job->type);
    harness_.OnJobAbandoned(job);
    TryStartNext();
    return;
  }
  if (had_conflict || tasks_placed > 0) {
    // Retry immediately: the job stays at the head of the queue and the next
    // attempt re-runs the scheduling algorithm for its remaining tasks.
    pending_conflict_retry_ = had_conflict;
    BeginAttempt(job);
    return;
  }
  RetryWithoutProgress(job);
}

void QueueScheduler::RetryWithoutProgress(const JobPtr& job) {
  queue_.push_back(job);
  if (queue_.size() == 1) {
    harness_.sim().ScheduleAfter(config_.no_progress_backoff,
                                 [this] { TryStartNext(); });
  } else {
    TryStartNext();
  }
}

}  // namespace omega
