#include "src/mesos/mesos_simulation.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/workload/cluster_config.h"

namespace omega {
namespace {

SimOptions ShortRun(uint64_t seed = 1) {
  SimOptions o;
  o.horizon = Duration::FromHours(4);
  o.seed = seed;
  return o;
}

// An empty cell with no arrival streams: the tests submit every job.
SimOptions Quiet() {
  SimOptions o = ShortRun();
  o.batch_rate_multiplier = 0.0;
  o.service_rate_multiplier = 0.0;
  return o;
}

JobPtr BatchJob(JobId id, Resources task_resources) {
  auto job = std::make_shared<Job>();
  job->id = id;
  job->type = JobType::kBatch;
  job->num_tasks = 1;
  job->task_resources = task_resources;
  job->task_duration = Duration::FromMinutes(30);
  job->precedence = DefaultPrecedence(JobType::kBatch);
  return job;
}

TEST(MesosTest, SchedulesWorkloadWhenDecisionsAreFast) {
  MesosSimulation sim(TestCluster(), ShortRun(), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  const int64_t scheduled =
      sim.batch_framework().metrics().JobsScheduled(JobType::kBatch) +
      sim.service_framework().metrics().JobsScheduled(JobType::kService);
  EXPECT_GT(scheduled, 100);
  EXPECT_GE(scheduled + sim.TotalJobsAbandoned(), sim.JobsSubmittedTotal() - 10);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(MesosTest, OffersNeverConflict) {
  // Pessimistic concurrency: the offered resources are locked, so commits can
  // never conflict (Table 1: "pessimistic").
  MesosSimulation sim(TestCluster(), ShortRun(2), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  EXPECT_EQ(sim.batch_framework().metrics().TasksConflicted(), 0);
  EXPECT_EQ(sim.service_framework().metrics().TasksConflicted(), 0);
}

TEST(MesosTest, OfferedResourcesReturnToZeroWhenIdle) {
  ClusterConfig cfg = TestCluster();
  cfg.batch.interarrival_mean_secs = 1000.0;  // almost no load
  cfg.service.interarrival_mean_secs = 2000.0;
  MesosSimulation sim(cfg, ShortRun(3), SchedulerConfig{}, SchedulerConfig{});
  sim.Run();
  // All offers must have been returned: no resources stay locked forever.
  EXPECT_TRUE(sim.allocator().TotalOffered().IsZero());
}

TEST(MesosTest, SlowServiceFrameworkStarvesBatch) {
  // The §4.2 pathology: with long service decision times, the service
  // framework locks nearly all resources, the batch framework only sees
  // slivers, and batch scheduling degrades (busyness up, abandonments).
  ClusterConfig cfg = TestCluster(16);
  cfg.batch.interarrival_mean_secs = 2.0;
  cfg.service.interarrival_mean_secs = 60.0;

  SchedulerConfig batch;
  batch.max_attempts = 100;
  SchedulerConfig fast_service;
  SchedulerConfig slow_service;
  slow_service.service_times.t_job = Duration::FromSeconds(50.0);

  MesosSimulation fast(cfg, ShortRun(4), batch, fast_service);
  MesosSimulation slow(cfg, ShortRun(4), batch, slow_service);
  fast.Run();
  slow.Run();

  EXPECT_GT(slow.batch_framework().metrics().MeanWait(JobType::kBatch),
            fast.batch_framework().metrics().MeanWait(JobType::kBatch));
}

TEST(MesosTest, AbandonsJobsUnderPathologicalLoad) {
  ClusterConfig cfg = TestCluster(8);
  cfg.initial_utilization = 0.7;
  cfg.batch.interarrival_mean_secs = 1.0;
  cfg.batch.tasks_per_job = std::make_shared<ConstantDist>(20.0);
  cfg.service.interarrival_mean_secs = 30.0;
  SchedulerConfig batch;
  batch.max_attempts = 20;
  SchedulerConfig service;
  service.service_times.t_job = Duration::FromSeconds(25.0);
  MesosSimulation sim(cfg, ShortRun(5), batch, service);
  sim.Run();
  EXPECT_GT(sim.TotalJobsAbandoned(), 0);
}

TEST(MesosTest, DrfSharesTracked) {
  MesosSimulation sim(TestCluster(), ShortRun(6), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  const double batch_share = sim.allocator().DominantShare(&sim.batch_framework());
  const double service_share =
      sim.allocator().DominantShare(&sim.service_framework());
  EXPECT_GE(batch_share, 0.0);
  EXPECT_LE(batch_share, 1.0);
  EXPECT_GE(service_share, 0.0);
  EXPECT_LE(service_share, 1.0);
  // Something actually ran through each framework.
  EXPECT_GT(sim.batch_framework().metrics().TasksAccepted(), 0);
  EXPECT_GT(sim.service_framework().metrics().TasksAccepted(), 0);
}

// A framework admits at most admission_limit queued jobs, like every queue
// scheduler; the job waiting for an offer is not queued.
TEST(MesosTest, HonoursAdmissionLimit) {
  SchedulerConfig batch;
  batch.admission_limit = 2;
  MesosSimulation sim(TestCluster(8), Quiet(), batch, SchedulerConfig{});
  std::vector<JobPtr> jobs;
  for (JobId id = 1; id <= 5; ++id) {
    jobs.push_back(BatchJob(id, Resources{1.0, 2.0}));
  }
  sim.sim().ScheduleAt(SimTime::FromSeconds(1), [&] {
    for (const JobPtr& job : jobs) {
      sim.SubmitJob(job);
    }
  });
  sim.sim().RunUntil(SimTime::FromMinutes(10));
  const SchedulerMetrics& m = sim.batch_framework().metrics();
  EXPECT_EQ(m.JobsScheduled(JobType::kBatch), 3);
  EXPECT_EQ(m.JobsAbandonedTotal(), 2);
  EXPECT_TRUE(jobs[3]->abandoned);
  EXPECT_TRUE(jobs[4]->abandoned);
  EXPECT_EQ(jobs[3]->scheduling_attempts, 0u);
}

// §4.2: a framework whose job placed nothing "nonetheless keeps trying". The
// job keeps its place at the head for the next offer, so the job queued
// behind it waits until it is abandoned.
TEST(MesosTest, JobThatPlacedNothingWaitsAtHead) {
  SchedulerConfig batch;
  batch.max_attempts = 5;
  MesosSimulation sim(TestCluster(8), Quiet(), batch, SchedulerConfig{});
  const JobPtr huge = BatchJob(1, Resources{1000.0, 1000.0});  // fits nowhere
  const JobPtr small = BatchJob(2, Resources{1.0, 2.0});
  const SimTime submit = SimTime::FromSeconds(1);
  sim.sim().ScheduleAt(submit, [&] {
    sim.SubmitJob(huge);
    sim.SubmitJob(small);
  });
  sim.sim().RunUntil(SimTime::FromMinutes(10));
  EXPECT_TRUE(huge->abandoned);
  EXPECT_EQ(huge->scheduling_attempts, batch.max_attempts);
  EXPECT_TRUE(small->FullyScheduled());
  EXPECT_EQ(small->scheduling_attempts, 1u);
  // Each of the huge job's attempts took at least its decision time.
  const Duration attempt = batch.batch_times.ForTasks(1);
  ASSERT_TRUE(small->first_attempt_time.has_value());
  EXPECT_GE(*small->first_attempt_time,
            submit + attempt * static_cast<double>(batch.max_attempts));
}

TEST(MesosTest, DeterministicAcrossRuns) {
  MesosSimulation sim1(TestCluster(), ShortRun(7), SchedulerConfig{},
                       SchedulerConfig{});
  MesosSimulation sim2(TestCluster(), ShortRun(7), SchedulerConfig{},
                       SchedulerConfig{});
  sim1.Run();
  sim2.Run();
  EXPECT_EQ(sim1.batch_framework().metrics().JobsScheduled(JobType::kBatch),
            sim2.batch_framework().metrics().JobsScheduled(JobType::kBatch));
}

}  // namespace
}  // namespace omega
