#include "src/scheduler/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace omega {
namespace {

const SimTime kDay1 = SimTime::Zero() + Duration::FromDays(1);
const SimTime kDay7 = SimTime::Zero() + Duration::FromDays(7);

TEST(MetricsTest, BusynessSingleDay) {
  SchedulerMetrics m;
  // Busy 6 hours of a 24-hour day.
  m.AddBusyInterval(SimTime::FromSeconds(0),
                    SimTime::Zero() + Duration::FromHours(6));
  const auto daily = m.DailyBusyness(kDay1);
  ASSERT_EQ(daily.size(), 1u);
  EXPECT_NEAR(daily[0], 0.25, 1e-9);
  EXPECT_NEAR(m.Busyness(kDay1).median, 0.25, 1e-9);
}

TEST(MetricsTest, BusyIntervalSplitsAcrossDays) {
  SchedulerMetrics m;
  // From 23:00 of day 0 to 01:00 of day 1.
  m.AddBusyInterval(SimTime::Zero() + Duration::FromHours(23),
                    SimTime::Zero() + Duration::FromHours(25));
  const auto daily = m.DailyBusyness(SimTime::Zero() + Duration::FromDays(2));
  ASSERT_EQ(daily.size(), 2u);
  EXPECT_NEAR(daily[0], 1.0 / 24.0, 1e-9);
  EXPECT_NEAR(daily[1], 1.0 / 24.0, 1e-9);
}

TEST(MetricsTest, BusynessMedianAndMad) {
  SchedulerMetrics m;
  // Days with busyness 0.1, 0.2, 0.3, 0.4, 0.5.
  for (int d = 0; d < 5; ++d) {
    const SimTime start = SimTime::Zero() + Duration::FromDays(d);
    m.AddBusyInterval(start, start + Duration::FromHours(24.0 * 0.1 * (d + 1)));
  }
  const DailySummary s = m.Busyness(SimTime::Zero() + Duration::FromDays(5));
  EXPECT_NEAR(s.median, 0.3, 1e-9);
  EXPECT_NEAR(s.mad, 0.1, 1e-9);
  EXPECT_NEAR(s.mean, 0.3, 1e-9);
}

TEST(MetricsTest, IdleDaysCountAsZero) {
  SchedulerMetrics m;
  m.AddBusyInterval(SimTime::Zero(), SimTime::Zero() + Duration::FromHours(12));
  const auto daily = m.DailyBusyness(kDay7);
  ASSERT_EQ(daily.size(), 7u);
  EXPECT_NEAR(daily[0], 0.5, 1e-9);
  for (size_t d = 1; d < 7; ++d) {
    EXPECT_EQ(daily[d], 0.0);
  }
}

TEST(MetricsTest, ConflictFractionPerDay) {
  SchedulerMetrics m;
  // Day 0: two jobs, one with 3 conflicted attempts -> fraction 1.5.
  m.RecordJobScheduled(SimTime::FromSeconds(10), JobType::kService, 4, 3);
  m.RecordJobScheduled(SimTime::FromSeconds(20), JobType::kService, 1, 0);
  // Day 1: one job, no conflicts.
  m.RecordJobScheduled(kDay1 + Duration::FromSeconds(5), JobType::kService, 1,
                       0);
  const auto daily =
      m.DailyConflictFraction(SimTime::Zero() + Duration::FromDays(2));
  ASSERT_EQ(daily.size(), 2u);
  EXPECT_DOUBLE_EQ(daily[0], 1.5);
  EXPECT_DOUBLE_EQ(daily[1], 0.0);
  EXPECT_DOUBLE_EQ(
      m.ConflictFraction(SimTime::Zero() + Duration::FromDays(2)).mean, 0.75);
}

TEST(MetricsTest, NoConflictBusynessSubtractsRetryWork) {
  SchedulerMetrics m;
  m.AddBusyInterval(SimTime::Zero(), SimTime::Zero() + Duration::FromHours(6),
                    /*conflict_retry=*/false);
  m.AddBusyInterval(SimTime::Zero() + Duration::FromHours(6),
                    SimTime::Zero() + Duration::FromHours(12),
                    /*conflict_retry=*/true);
  EXPECT_NEAR(m.Busyness(kDay1).median, 0.5, 1e-9);
  EXPECT_NEAR(m.BusynessNoConflict(kDay1).median, 0.25, 1e-9);
}

TEST(MetricsTest, WaitTimesPerType) {
  SchedulerMetrics m;
  m.RecordJobWait(JobType::kBatch, Duration::FromSeconds(10));
  m.RecordJobWait(JobType::kBatch, Duration::FromSeconds(20));
  m.RecordJobWait(JobType::kService, Duration::FromSeconds(100));
  EXPECT_DOUBLE_EQ(m.MeanWait(JobType::kBatch), 15.0);
  EXPECT_DOUBLE_EQ(m.MeanWait(JobType::kService), 100.0);
  EXPECT_EQ(m.JobsWaited(JobType::kBatch), 2);
  EXPECT_EQ(m.JobsWaited(JobType::kService), 1);
  EXPECT_DOUBLE_EQ(m.WaitPercentile(JobType::kBatch, 1.0), 20.0);
}

TEST(MetricsTest, EmptyWaitIsNaN) {
  // "No jobs waited" must be distinguishable from a true zero-second wait;
  // JSON emitters render the NaN as null.
  SchedulerMetrics m;
  EXPECT_TRUE(std::isnan(m.MeanWait(JobType::kBatch)));
  EXPECT_TRUE(std::isnan(m.WaitPercentile(JobType::kService, 0.9)));
}

TEST(MetricsTest, JobCounters) {
  SchedulerMetrics m;
  m.RecordJobScheduled(SimTime::FromSeconds(1), JobType::kBatch, 1, 0);
  m.RecordJobScheduled(SimTime::FromSeconds(2), JobType::kBatch, 2, 1);
  m.RecordJobScheduled(SimTime::FromSeconds(3), JobType::kService, 1, 0);
  m.RecordJobAbandoned(JobType::kBatch);
  m.RecordJobAbandoned(JobType::kService);
  EXPECT_EQ(m.JobsScheduled(JobType::kBatch), 2);
  EXPECT_EQ(m.JobsScheduled(JobType::kService), 1);
  EXPECT_EQ(m.JobsAbandoned(JobType::kBatch), 1);
  EXPECT_EQ(m.JobsAbandonedTotal(), 2);
  EXPECT_EQ(m.TotalConflictedAttempts(), 1);
}

TEST(MetricsTest, TransactionCounters) {
  SchedulerMetrics m;
  m.RecordTransaction(5, 2);
  m.RecordTransaction(3, 0);
  EXPECT_EQ(m.TasksAccepted(), 8);
  EXPECT_EQ(m.TasksConflicted(), 2);
}

TEST(MetricsTest, PartialDayNormalizedByElapsedSpan) {
  SchedulerMetrics m;
  // A 12-hour run, busy the whole time: busyness must be 1.0, not 0.5.
  m.AddBusyInterval(SimTime::Zero(), SimTime::Zero() + Duration::FromHours(12));
  const auto daily = m.DailyBusyness(SimTime::Zero() + Duration::FromHours(12));
  ASSERT_EQ(daily.size(), 1u);
  EXPECT_NEAR(daily[0], 1.0, 1e-9);
  // 36-hour run: one full day busy 1/3 of it, plus a half day fully busy.
  SchedulerMetrics m2;
  m2.AddBusyInterval(SimTime::Zero(), SimTime::Zero() + Duration::FromHours(8));
  m2.AddBusyInterval(SimTime::Zero() + Duration::FromHours(24),
                     SimTime::Zero() + Duration::FromHours(36));
  const auto daily2 =
      m2.DailyBusyness(SimTime::Zero() + Duration::FromHours(36));
  ASSERT_EQ(daily2.size(), 2u);
  EXPECT_NEAR(daily2[0], 8.0 / 24.0, 1e-9);
  EXPECT_NEAR(daily2[1], 1.0, 1e-9);
}

TEST(MetricsTest, BusynessCappedAtOne) {
  SchedulerMetrics m;
  // Two overlapping logical busy intervals (parallel attempts would be a bug,
  // but the metric itself must stay in [0, 1]).
  m.AddBusyInterval(SimTime::Zero(), SimTime::Zero() + Duration::FromHours(20));
  m.AddBusyInterval(SimTime::Zero(), SimTime::Zero() + Duration::FromHours(20));
  EXPECT_LE(m.Busyness(kDay1).median, 1.0);
}

TEST(MetricsTest, BusynessClampEventsCounted) {
  SchedulerMetrics m;
  // Day 0 double-counted (40 h of "busy" in a 24 h day), day 1 legitimate.
  m.AddBusyInterval(SimTime::Zero(), SimTime::Zero() + Duration::FromHours(20));
  m.AddBusyInterval(SimTime::Zero(), SimTime::Zero() + Duration::FromHours(20));
  m.AddBusyInterval(kDay1, kDay1 + Duration::FromHours(10));
  const SimTime end = SimTime::Zero() + Duration::FromDays(2);
  EXPECT_EQ(m.BusynessClampEvents(end), 1);
  // No double counting anywhere: no clamps.
  SchedulerMetrics clean;
  clean.AddBusyInterval(SimTime::Zero(),
                        SimTime::Zero() + Duration::FromHours(23));
  EXPECT_EQ(clean.BusynessClampEvents(kDay1), 0);
}

TEST(MetricsTest, BusynessClampOnPartialFinalDay) {
  SchedulerMetrics m;
  // A 6-hour run whose final attempt runs past the horizon: busy exceeds the
  // elapsed span of the (only) day, the legitimate clamp case.
  m.AddBusyInterval(SimTime::Zero(), SimTime::Zero() + Duration::FromHours(6) +
                                         Duration::FromSeconds(30));
  const SimTime end = SimTime::Zero() + Duration::FromHours(6);
  EXPECT_EQ(m.BusynessClampEvents(end), 1);
  EXPECT_NEAR(m.DailyBusyness(end)[0], 1.0, 1e-9);
}

TEST(MetricsTest, ClampWarningOnlyForEarlierDays) {
  // The final partial day's legitimate clamp stays silent ...
  SchedulerMetrics final_day;
  final_day.AddBusyInterval(
      SimTime::Zero() + Duration::FromHours(24),
      SimTime::Zero() + Duration::FromHours(30) + Duration::FromSeconds(30));
  const SimTime end = SimTime::Zero() + Duration::FromHours(30);
  testing::internal::CaptureStderr();
  EXPECT_NEAR(final_day.DailyBusyness(end)[1], 1.0, 1e-9);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(final_day.BusynessClampEvents(end), 1);
  // ... while a double-counted earlier day still warns.
  SchedulerMetrics doubled;
  doubled.AddBusyInterval(SimTime::Zero(),
                          SimTime::Zero() + Duration::FromHours(20));
  doubled.AddBusyInterval(SimTime::Zero(),
                          SimTime::Zero() + Duration::FromHours(20));
  testing::internal::CaptureStderr();
  doubled.DailyBusyness(end);
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "daily busyness clamped: day 0"),
            std::string::npos);
}

TEST(MetricsTest, BusyIntervalSplitsAcrossMultipleDayBoundaries) {
  SchedulerMetrics m;
  // One interval spanning parts of day 0 and 2 and all of day 1: from 18:00
  // of day 0 to 06:00 of day 2 (36 hours total).
  m.AddBusyInterval(SimTime::Zero() + Duration::FromHours(18),
                    SimTime::Zero() + Duration::FromHours(54));
  const SimTime end = SimTime::Zero() + Duration::FromDays(3);
  const auto daily = m.DailyBusyness(end);
  ASSERT_EQ(daily.size(), 3u);
  EXPECT_NEAR(daily[0], 6.0 / 24.0, 1e-9);
  EXPECT_NEAR(daily[1], 1.0, 1e-9);
  EXPECT_NEAR(daily[2], 6.0 / 24.0, 1e-9);
  EXPECT_NEAR(m.TotalBusy().ToSeconds(), 36.0 * 3600.0, 1e-6);
  // Exactly one attempt was accounted, not one per split segment.
  EXPECT_EQ(m.TotalAttempts(), 1);
  EXPECT_EQ(m.BusynessClampEvents(end), 0);
}

TEST(MetricsTest, BusyIntervalSplitWithPartialFinalDay) {
  SchedulerMetrics m;
  // Interval from 12:00 of day 0 to 06:00 of day 1, horizon at 06:00 day 1:
  // the final day's partial span normalizes to fully busy.
  m.AddBusyInterval(SimTime::Zero() + Duration::FromHours(12),
                    SimTime::Zero() + Duration::FromHours(30));
  const SimTime end = SimTime::Zero() + Duration::FromHours(30);
  const auto daily = m.DailyBusyness(end);
  ASSERT_EQ(daily.size(), 2u);
  EXPECT_NEAR(daily[0], 0.5, 1e-9);
  EXPECT_NEAR(daily[1], 1.0, 1e-9);
  EXPECT_EQ(m.BusynessClampEvents(end), 0);
}

TEST(MetricsTest, AttemptsPerJobDistributionRecorded) {
  SchedulerMetrics m;
  // Regression: RecordJobScheduled used to silently discard `attempts`.
  m.RecordJobScheduled(SimTime::FromSeconds(1), JobType::kBatch, 1, 0);
  m.RecordJobScheduled(SimTime::FromSeconds(2), JobType::kBatch, 4, 3);
  m.RecordJobScheduled(SimTime::FromSeconds(3), JobType::kService, 7, 2);
  EXPECT_EQ(m.AttemptsPerJob().count(), 3u);
  EXPECT_DOUBLE_EQ(m.MeanAttemptsPerJob(), 4.0);
  EXPECT_DOUBLE_EQ(m.AttemptsPerJob().MaxValue(), 7.0);
}

TEST(MetricsTest, PreemptionAccountedSeparatelyFromTransactions) {
  SchedulerMetrics m;
  m.RecordTransaction(5, 2);
  m.RecordPreemption(/*tasks_placed=*/3, /*victims_evicted=*/4);
  // Eviction-won placements must not leak into the optimistic-commit counters.
  EXPECT_EQ(m.TasksAccepted(), 5);
  EXPECT_EQ(m.TasksConflicted(), 2);
  EXPECT_EQ(m.TasksPlacedByPreemption(), 3);
  EXPECT_EQ(m.PreemptionVictims(), 4);
}

}  // namespace
}  // namespace omega
