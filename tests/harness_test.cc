// Tests of the ClusterSimulation harness itself: arrival streams, initial
// fill, trace replay, utilization sampling, task lifecycle hooks — plus a
// cross-architecture accounting property test over random configurations.
#include <gtest/gtest.h>

#include "src/mesos/mesos_simulation.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/monolithic.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

class RecordingSimulation : public ClusterSimulation {
 public:
  RecordingSimulation(const ClusterConfig& config, const SimOptions& options)
      : ClusterSimulation(config, options) {}

  void SubmitJob(const JobPtr& job) override { submitted.push_back(job); }

  std::vector<JobPtr> submitted;
};

SimOptions Opts(double hours, uint64_t seed) {
  SimOptions o;
  o.horizon = Duration::FromHours(hours);
  o.seed = seed;
  return o;
}

TEST(HarnessTest, InitialFillNearTarget) {
  ClusterConfig cfg = TestCluster(64);
  cfg.initial_utilization = 0.5;
  RecordingSimulation sim(cfg, Opts(0.001, 1));
  sim.Run();
  // Utilization right after start (almost nothing has churned yet).
  EXPECT_NEAR(sim.cell().CpuUtilization(), 0.5, 0.12);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(HarnessTest, ArrivalRateMatchesConfig) {
  ClusterConfig cfg = TestCluster();
  RecordingSimulation sim(cfg, Opts(24, 2));
  sim.Run();
  const double expected_batch =
      24.0 * 3600.0 / cfg.batch.interarrival_mean_secs;
  EXPECT_NEAR(static_cast<double>(sim.JobsSubmitted(JobType::kBatch)),
              expected_batch, expected_batch * 0.1);
  EXPECT_EQ(sim.JobsSubmittedTotal(),
            static_cast<int64_t>(sim.submitted.size()));
}

TEST(HarnessTest, RateMultipliersScaleArrivals) {
  ClusterConfig cfg = TestCluster();
  SimOptions opts = Opts(12, 3);
  opts.batch_rate_multiplier = 3.0;
  opts.service_rate_multiplier = 0.0;  // suppress service entirely
  RecordingSimulation sim(cfg, opts);
  sim.Run();
  EXPECT_EQ(sim.JobsSubmitted(JobType::kService), 0);
  const double expected =
      3.0 * 12.0 * 3600.0 / cfg.batch.interarrival_mean_secs;
  EXPECT_NEAR(static_cast<double>(sim.JobsSubmitted(JobType::kBatch)), expected,
              expected * 0.15);
}

TEST(HarnessTest, TraceReplaySubmitsExactly) {
  ClusterConfig cfg = TestCluster();
  RecordingSimulation sim(cfg, Opts(2, 4));
  std::vector<Job> trace;
  for (int i = 0; i < 10; ++i) {
    Job j;
    j.id = static_cast<JobId>(i + 1);
    j.type = i % 3 == 0 ? JobType::kService : JobType::kBatch;
    j.submit_time = SimTime::FromSeconds(60.0 * i);
    j.num_tasks = 2;
    j.task_duration = Duration::FromSeconds(30);
    j.task_resources = Resources{0.5, 1.0};
    trace.push_back(j);
  }
  sim.RunTrace(trace);
  ASSERT_EQ(sim.submitted.size(), 10u);
  for (size_t i = 1; i < sim.submitted.size(); ++i) {
    EXPECT_LT(sim.submitted[i - 1]->submit_time, sim.submitted[i]->submit_time);
  }
}

TEST(HarnessTest, TraceJobsBeyondHorizonDropped) {
  RecordingSimulation sim(TestCluster(), Opts(1, 5));
  Job early;
  early.id = 1;
  early.submit_time = SimTime::FromMinutes(30);
  early.num_tasks = 1;
  Job late;
  late.id = 2;
  late.submit_time = SimTime::FromHours(5);  // beyond the 1 h horizon
  late.num_tasks = 1;
  sim.RunTrace({early, late});
  EXPECT_EQ(sim.submitted.size(), 1u);
}

TEST(HarnessTest, UtilizationSamplingInterval) {
  SimOptions opts = Opts(2, 6);
  opts.utilization_sample_interval = Duration::FromMinutes(10);
  RecordingSimulation sim(TestCluster(), opts);
  sim.Run();
  // Samples at t=0,10,...,120 minutes inclusive.
  EXPECT_EQ(sim.utilization_series().size(), 13u);
  EXPECT_DOUBLE_EQ(sim.utilization_series().front().time_hours, 0.0);
}

TEST(HarnessTest, RegistryTracksRunningTasks) {
  SimOptions opts = Opts(0.001, 7);
  opts.track_running_tasks = true;
  RecordingSimulation sim(TestCluster(64), opts);
  sim.Run();
  // Every initial-fill task is registered until it ends.
  EXPECT_GT(sim.task_registry().NumRunning(), 0u);
}

// A simulation either keeps its own queue or runs on a shared one; a null
// shared simulator is a caller bug, not a request to keep the owned queue.
TEST(HarnessDeathTest, UseSharedSimulatorRejectsNull) {
  RecordingSimulation sim(TestCluster(8), Opts(0.001, 8));
  EXPECT_DEATH(sim.UseSharedSimulator(nullptr), "needs a simulator");
}

// A shared queue must end where the cell does: with another horizon the cell
// would keep or lose events that its own horizon treats otherwise.
TEST(HarnessDeathTest, UseSharedSimulatorRejectsOtherHorizon) {
  RecordingSimulation sim(TestCluster(8), Opts(0.001, 8));
  Simulator unbounded;
  EXPECT_DEATH(sim.UseSharedSimulator(&unbounded), "horizon");
  Simulator same(sim.EndTime());
  sim.UseSharedSimulator(&same);
  EXPECT_EQ(&sim.sim(), &same);
}

// Nothing past the horizon is queued: fill ends, cohort ends, arrivals,
// samples, failures and repairs that would fire later are all dropped, so a
// run to the horizon leaves an empty queue.
TEST(HarnessTest, RunToHorizonLeavesNoPendingEvents) {
  for (const bool track : {false, true}) {
    SCOPED_TRACE(track ? "registry on" : "registry off");
    SimOptions opts = Opts(1, 9);
    opts.track_running_tasks = track;
    opts.utilization_sample_interval = Duration::FromMinutes(7);
    if (track) {
      opts.machine_failure_rate_per_day = 2.0;
    }
    SchedulerConfig sched;
    OmegaSimulation sim(TestCluster(64), opts, sched, sched, 1);
    sim.Run();
    EXPECT_GT(sim.JobsSubmittedTotal(), 0);
    EXPECT_EQ(sim.sim().Now(), sim.EndTime());
    EXPECT_EQ(sim.sim().PendingEvents(), 0u);
  }
}

// Accounting identity across architectures and seeds: every submitted job is
// scheduled, abandoned, queued, or in flight — never lost.
class AccountingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccountingPropertyTest, OmegaJobsNeverLost) {
  const uint64_t seed = GetParam();
  ClusterConfig cfg = TestCluster(16 + seed % 3 * 16);
  SchedulerConfig sched;
  sched.batch_times.t_job = Duration::FromSeconds(0.1 + 0.4 * (seed % 5));
  OmegaSimulation sim(cfg, Opts(3, seed), sched, sched, 1 + seed % 4);
  sim.Run();
  int64_t accounted = sim.TotalJobsAbandoned();
  accounted +=
      sim.service_scheduler().metrics().JobsScheduled(JobType::kService);
  accounted += static_cast<int64_t>(sim.service_scheduler().QueueDepth());
  accounted += sim.service_scheduler().busy() ? 1 : 0;
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    accounted +=
        sim.batch_scheduler(i).metrics().JobsScheduled(JobType::kBatch);
    accounted += static_cast<int64_t>(sim.batch_scheduler(i).QueueDepth());
    accounted += sim.batch_scheduler(i).busy() ? 1 : 0;
  }
  EXPECT_EQ(accounted, sim.JobsSubmittedTotal());
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST_P(AccountingPropertyTest, MesosJobsNeverLost) {
  const uint64_t seed = GetParam();
  ClusterConfig cfg = TestCluster(32);
  SchedulerConfig sched;
  sched.max_attempts = 100;
  MesosSimulation sim(cfg, Opts(3, seed), sched, sched);
  sim.Run();
  int64_t accounted = sim.TotalJobsAbandoned();
  for (MesosFramework* fw :
       {&sim.batch_framework(), &sim.service_framework()}) {
    accounted += fw->metrics().JobsScheduled(JobType::kBatch);
    accounted += fw->metrics().JobsScheduled(JobType::kService);
    accounted += static_cast<int64_t>(fw->QueueDepth());
    accounted += fw->busy() ? 1 : 0;
  }
  EXPECT_EQ(accounted, sim.JobsSubmittedTotal());
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace omega
