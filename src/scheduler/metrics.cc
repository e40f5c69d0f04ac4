#include "src/scheduler/metrics.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"

namespace omega {
namespace {

constexpr int64_t kDayMicros = Duration::FromDays(1).micros();

size_t DayIndex(SimTime t) {
  return static_cast<size_t>(std::max<int64_t>(0, t.micros()) / kDayMicros);
}

// Day buckets up to `end`, the last one possibly partial; at least one.
size_t NumDays(SimTime end) {
  return std::max<size_t>(
      1, static_cast<size_t>((end.micros() + kDayMicros - 1) / kDayMicros));
}

// Simulated span of `day` up to `end`, in microseconds; at least one.
int64_t DaySpanMicros(size_t day, SimTime end) {
  const int64_t day_start = static_cast<int64_t>(day) * kDayMicros;
  return std::min(kDayMicros, std::max<int64_t>(1, end.micros() - day_start));
}

}  // namespace

void SchedulerMetrics::EnsureDay(size_t day) {
  if (busy_secs_per_day_.size() <= day) {
    busy_secs_per_day_.resize(day + 1, 0.0);
    conflict_retry_busy_secs_per_day_.resize(day + 1, 0.0);
    conflicts_per_day_.resize(day + 1, 0.0);
    scheduled_jobs_per_day_.resize(day + 1, 0.0);
  }
}

void SchedulerMetrics::AddBusyInterval(SimTime start, SimTime end,
                                       bool conflict_retry) {
  OMEGA_CHECK(end >= start);
  total_busy_ = total_busy_ + (end - start);
  ++total_attempts_;
  // Split the interval across day boundaries.
  SimTime cursor = start;
  while (cursor < end) {
    const size_t day = DayIndex(cursor);
    const SimTime day_end = SimTime(static_cast<int64_t>(day + 1) * kDayMicros);
    const SimTime seg_end = std::min(day_end, end);
    EnsureDay(day);
    const double secs = (seg_end - cursor).ToSeconds();
    busy_secs_per_day_[day] += secs;
    if (conflict_retry) {
      conflict_retry_busy_secs_per_day_[day] += secs;
    }
    cursor = seg_end;
  }
}

void SchedulerMetrics::RecordJobWait(JobType type, Duration wait) {
  if (type == JobType::kBatch) {
    wait_secs_batch_.push_back(wait.ToSeconds());
  } else {
    wait_secs_service_.push_back(wait.ToSeconds());
  }
}

void SchedulerMetrics::RecordJobScheduled(SimTime when, JobType type,
                                          uint32_t attempts,
                                          uint32_t conflicted_attempts) {
  attempts_per_job_.Add(static_cast<double>(attempts));
  const size_t day = DayIndex(when);
  EnsureDay(day);
  conflicts_per_day_[day] += conflicted_attempts;
  scheduled_jobs_per_day_[day] += 1.0;
  total_conflicted_attempts_ += conflicted_attempts;
  if (type == JobType::kBatch) {
    ++jobs_scheduled_batch_;
  } else {
    ++jobs_scheduled_service_;
  }
}

void SchedulerMetrics::RecordJobAbandoned(JobType type) {
  if (type == JobType::kBatch) {
    ++jobs_abandoned_batch_;
  } else {
    ++jobs_abandoned_service_;
  }
}

void SchedulerMetrics::RecordTransaction(int accepted_tasks,
                                         int conflicted_tasks) {
  tasks_accepted_ += accepted_tasks;
  tasks_conflicted_ += conflicted_tasks;
}

void SchedulerMetrics::RecordPreemption(int tasks_placed, int victims_evicted) {
  tasks_placed_by_preemption_ += tasks_placed;
  preemption_victims_ += victims_evicted;
}

DailySummary SchedulerMetrics::Summarize(const std::vector<double>& values) {
  DailySummary s;
  if (values.empty()) {
    return s;
  }
  s.median = Median(values);
  s.mad = MedianAbsoluteDeviation(values);
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(values.size());
  return s;
}

std::vector<double> SchedulerMetrics::DailyBusyness(SimTime end) const {
  const size_t days = NumDays(end);
  std::vector<double> out;
  for (size_t day = 0; day < days; ++day) {
    const double busy =
        day < busy_secs_per_day_.size() ? busy_secs_per_day_[day] : 0.0;
    // The last day may be partial: normalize by the simulated span within it.
    const int64_t span = DaySpanMicros(day, end);
    const double fraction = busy / (static_cast<double>(span) / 1e6);
    // Clamping an earlier day hides double-counted busy intervals; surface
    // the first one. An attempt running past the horizon legitimately clamps
    // the final day, which BusynessClampEvents() still counts.
    if (fraction > 1.0 && day + 1 < days && !clamp_warned_) {
      clamp_warned_ = true;
      OMEGA_LOG(kWarning) << "daily busyness clamped: day " << day << " busy "
                          << busy << "s exceeds span "
                          << static_cast<double>(span) / 1e6 << "s";
    }
    out.push_back(std::min(1.0, fraction));
  }
  return out;
}

int64_t SchedulerMetrics::BusynessClampEvents(SimTime end) const {
  const size_t days = NumDays(end);
  int64_t clamps = 0;
  for (size_t day = 0; day < days && day < busy_secs_per_day_.size(); ++day) {
    const int64_t span = DaySpanMicros(day, end);
    if (busy_secs_per_day_[day] > static_cast<double>(span) / 1e6) {
      ++clamps;
    }
  }
  return clamps;
}

std::vector<double> SchedulerMetrics::DailyConflictFraction(SimTime end) const {
  const size_t full_days = NumDays(end);
  std::vector<double> out;
  for (size_t day = 0; day < full_days; ++day) {
    const double conflicts =
        day < conflicts_per_day_.size() ? conflicts_per_day_[day] : 0.0;
    const double scheduled = day < scheduled_jobs_per_day_.size()
                                 ? scheduled_jobs_per_day_[day]
                                 : 0.0;
    out.push_back(scheduled > 0.0 ? conflicts / scheduled : 0.0);
  }
  return out;
}

DailySummary SchedulerMetrics::Busyness(SimTime end) const {
  return Summarize(DailyBusyness(end));
}

DailySummary SchedulerMetrics::BusynessNoConflict(SimTime end) const {
  const size_t full_days = NumDays(end);
  std::vector<double> values;
  for (size_t day = 0; day < full_days; ++day) {
    const double busy =
        day < busy_secs_per_day_.size() ? busy_secs_per_day_[day] : 0.0;
    const double retry = day < conflict_retry_busy_secs_per_day_.size()
                             ? conflict_retry_busy_secs_per_day_[day]
                             : 0.0;
    const int64_t span = DaySpanMicros(day, end);
    values.push_back(std::min(
        1.0, std::max(0.0, busy - retry) / (static_cast<double>(span) / 1e6)));
  }
  return Summarize(values);
}

DailySummary SchedulerMetrics::ConflictFraction(SimTime end) const {
  return Summarize(DailyConflictFraction(end));
}

double SchedulerMetrics::MeanWait(JobType type) const {
  const auto& waits =
      type == JobType::kBatch ? wait_secs_batch_ : wait_secs_service_;
  if (waits.empty()) {
    // No jobs waited: "no data", not a zero-second wait (see stats.h).
    // Aggregators that weight by JobsWaited() must guard the count.
    return std::numeric_limits<double>::quiet_NaN();
  }
  double sum = 0.0;
  for (double w : waits) {
    sum += w;
  }
  return sum / static_cast<double>(waits.size());
}

double SchedulerMetrics::WaitPercentile(JobType type, double q) const {
  const auto& waits =
      type == JobType::kBatch ? wait_secs_batch_ : wait_secs_service_;
  return Percentile(waits, q);
}

int64_t SchedulerMetrics::JobsWaited(JobType type) const {
  return static_cast<int64_t>(type == JobType::kBatch
                                  ? wait_secs_batch_.size()
                                  : wait_secs_service_.size());
}

int64_t SchedulerMetrics::JobsScheduled(JobType type) const {
  return type == JobType::kBatch ? jobs_scheduled_batch_
                                 : jobs_scheduled_service_;
}

int64_t SchedulerMetrics::JobsAbandoned(JobType type) const {
  return type == JobType::kBatch ? jobs_abandoned_batch_
                                 : jobs_abandoned_service_;
}

int64_t SchedulerMetrics::JobsAbandonedTotal() const {
  return jobs_abandoned_batch_ + jobs_abandoned_service_;
}

}  // namespace omega
