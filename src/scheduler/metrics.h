// Per-scheduler metric accounting (§4, "Metrics").
//
// The paper reports three primary metrics:
//  - job wait time: submission to the *beginning of the first scheduling
//    attempt* (overall averages; 90th percentiles in §5);
//  - scheduler busyness: fraction of time the scheduler spends making
//    decisions, reported as the median of per-day values with median-absolute-
//    deviation error bars;
//  - conflict fraction: conflicts per successfully scheduled job (a value of
//    3 means the average job needed four scheduling attempts).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/workload/job.h"

namespace omega {

struct DailySummary {
  double median = 0.0;
  double mad = 0.0;  // median absolute deviation across days
  double mean = 0.0;
};

// Busyness and conflict fractions are bucketed by simulated day.
class SchedulerMetrics {
 public:
  // --- recording ---

  // Accounts a busy interval [start, end); split across day buckets.
  // `conflict_retry` marks work that only happened because a previous attempt
  // of the same job conflicted — subtracted to approximate the "no conflict"
  // busyness of Fig. 12c.
  void AddBusyInterval(SimTime start, SimTime end, bool conflict_retry = false);

  // Job wait time, recorded when the first scheduling attempt begins.
  void RecordJobWait(JobType type, Duration wait);

  // Called when a job finishes scheduling (all tasks placed). `attempts` is
  // the total number of scheduling attempts (recorded into the per-job
  // attempt-count distribution), `conflicted_attempts` how many of them hit a
  // commit conflict. `when` attributes the conflicts to a day.
  void RecordJobScheduled(SimTime when, JobType type, uint32_t attempts,
                          uint32_t conflicted_attempts);

  void RecordJobAbandoned(JobType type);

  // Raw transaction-level accounting (accepted/conflicted task claims from
  // optimistic commits — preemption placements are NOT transactions and go
  // through RecordPreemption instead).
  void RecordTransaction(int accepted_tasks, int conflicted_tasks);

  // Placements won by evicting lower-precedence tasks (§3.4). Kept separate
  // from the transaction counters: folding eviction-won tasks into
  // TasksAccepted would skew the transaction-level conflict statistics.
  void RecordPreemption(int tasks_placed, int victims_evicted);

  // --- queries (after the run; `end` is the simulation end time) ---

  DailySummary Busyness(SimTime end) const;
  DailySummary BusynessNoConflict(SimTime end) const;
  DailySummary ConflictFraction(SimTime end) const;

  double MeanWait(JobType type) const;
  double WaitPercentile(JobType type, double q) const;
  int64_t JobsWaited(JobType type) const;

  int64_t JobsScheduled(JobType type) const;
  int64_t JobsAbandoned(JobType type) const;
  int64_t JobsAbandonedTotal() const;
  int64_t TasksAccepted() const { return tasks_accepted_; }
  int64_t TasksConflicted() const { return tasks_conflicted_; }
  int64_t TotalConflictedAttempts() const { return total_conflicted_attempts_; }
  int64_t TotalAttempts() const { return total_attempts_; }
  Duration TotalBusy() const { return total_busy_; }

  // Preemption accounting (separate from the optimistic-commit counters).
  int64_t TasksPlacedByPreemption() const {
    return tasks_placed_by_preemption_;
  }
  int64_t PreemptionVictims() const { return preemption_victims_; }

  // Attempts-per-job distribution over successfully scheduled jobs (Fig. 14
  // analysis wants attempts per job, not just conflicts per job).
  const Cdf& AttemptsPerJob() const { return attempts_per_job_; }
  double MeanAttemptsPerJob() const { return attempts_per_job_.MeanValue(); }

  // Daily series (value per simulated day), for plots.
  std::vector<double> DailyBusyness(SimTime end) const;
  std::vector<double> DailyConflictFraction(SimTime end) const;

  // Number of day buckets whose recorded busy time exceeds the day's
  // simulated span, i.e. days where DailyBusyness silently clamped to 1.0.
  // A scheduler is busy with at most one attempt at a time, so the only
  // legitimate clamp is the final day when an attempt runs past the horizon;
  // anything else indicates double-counted busy intervals.
  int64_t BusynessClampEvents(SimTime end) const;

 private:
  void EnsureDay(size_t day);
  static DailySummary Summarize(const std::vector<double>& values);

  std::vector<double> busy_secs_per_day_;
  std::vector<double> conflict_retry_busy_secs_per_day_;
  std::vector<double> conflicts_per_day_;
  std::vector<double> scheduled_jobs_per_day_;

  std::vector<double> wait_secs_batch_;
  std::vector<double> wait_secs_service_;
  Cdf attempts_per_job_;

  int64_t jobs_scheduled_batch_ = 0;
  int64_t jobs_scheduled_service_ = 0;
  int64_t jobs_abandoned_batch_ = 0;
  int64_t jobs_abandoned_service_ = 0;
  int64_t tasks_accepted_ = 0;
  int64_t tasks_conflicted_ = 0;
  int64_t tasks_placed_by_preemption_ = 0;
  int64_t preemption_victims_ = 0;
  int64_t total_conflicted_attempts_ = 0;
  int64_t total_attempts_ = 0;
  Duration total_busy_;
  // Warn-once latch for busyness clamping (mutable: set from const queries).
  mutable bool clamp_warned_ = false;
};

}  // namespace omega

