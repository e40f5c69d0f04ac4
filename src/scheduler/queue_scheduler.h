// A scheduler that processes one job at a time from a FIFO queue (§4,
// "Our schedulers process one request at a time").
//
// Every architecture's scheduler is one: the monolithic scheduler, the Omega
// (shared-state) schedulers and the Mesos (two-level) frameworks. Subclasses
// implement BeginAttempt() with the architecture-specific placement and commit
// protocol, which differ in resource choice and interference only (Table 1);
// the base class owns the queue, busy-state machine, retry/abandonment policy,
// metric accounting and trace track they share. Each one lists itself in its
// harness's schedulers().
#pragma once

#include <deque>
#include <string>

#include "src/scheduler/cluster_simulation.h"
#include "src/scheduler/config.h"
#include "src/scheduler/metrics.h"

namespace omega {

class QueueScheduler {
 public:
  QueueScheduler(ClusterSimulation& harness, SchedulerConfig config);
  virtual ~QueueScheduler();
  QueueScheduler(const QueueScheduler&) = delete;
  QueueScheduler& operator=(const QueueScheduler&) = delete;

  // Enqueues a job; starts an attempt immediately if idle. Jobs beyond the
  // admission limit (if configured) are rejected and counted as abandoned.
  void Submit(const JobPtr& job);

  bool busy() const { return busy_; }
  size_t QueueDepth() const { return queue_.size(); }
  const std::string& name() const { return config_.name; }
  const SchedulerConfig& config() const { return config_; }
  SchedulerMetrics& metrics() { return metrics_; }
  const SchedulerMetrics& metrics() const { return metrics_; }

 protected:
  // Starts the architecture-specific scheduling attempt for `job`. The
  // implementation must, after the decision time elapses, call
  // CompleteAttempt() exactly once.
  virtual void BeginAttempt(const JobPtr& job) = 0;

  // Called by CompleteAttempt when an attempt placed nothing and hit no
  // conflict: the cell currently has no room for `job`. The default requeues
  // it at the back so other jobs are not blocked, and if nothing else is
  // queued, looks again only after the no-progress backoff.
  virtual void RetryWithoutProgress(const JobPtr& job);

  // Shared epilogue: updates job bookkeeping and decides between completion,
  // immediate retry (job stays at the head), RetryWithoutProgress, and
  // abandonment.
  // `tasks_placed` tasks were committed this attempt; `had_conflict` marks a
  // transaction that hit at least one conflict.
  void CompleteAttempt(const JobPtr& job, uint32_t tasks_placed, bool had_conflict);

  // Records wait time (first attempt only) and attempt count; returns the
  // decision duration for this attempt. Call at the start of BeginAttempt.
  Duration AccountAttemptStart(const JobPtr& job, uint32_t tasks_in_attempt);

  // True if taking on `job` would exceed the configured resource limit.
  bool ExceedsResourceLimit(const Job& job) const;

  // Starts committed tasks, maintaining the held-resources account when a
  // resource limit is configured.
  void StartPlacedTasks(const Job& job, std::span<const TaskClaim> claims);

  // The optimistic-commit epilogue of the shared-state schedulers: commits
  // `claims` (placed against an earlier snapshot of the cell) under the
  // configured conflict and commit modes, records the transaction, traces
  // the commit, every conflicting claim and an at-commit gang abort, and
  // starts the accepted tasks. Returns the commit's outcome.
  CommitResult CommitAndStart(const Job& job, std::span<const TaskClaim> claims);

  void TryStartNext();

  // Trace track for this scheduler, registered lazily under config_.name.
  // Returns 0 (the cluster track) when no recorder is attached.
  uint16_t TraceTrack();

  ClusterSimulation& harness_;
  SchedulerConfig config_;
  SchedulerMetrics metrics_;
  std::deque<JobPtr> queue_;
  bool busy_ = false;

  // Resources currently held by jobs this scheduler placed (for the optional
  // per-scheduler resource limit, §3.4).
  Resources held_;

 private:
  // Marks whether the in-flight attempt was triggered by a conflict on the
  // previous attempt of the same job (for the no-conflict busyness estimate).
  bool pending_conflict_retry_ = false;
  int32_t trace_track_ = -1;  // lazily registered; -1 = not yet
};

}  // namespace omega

