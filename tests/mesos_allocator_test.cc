// Unit-level tests of the Mesos allocator mechanics: DRF ordering, offer
// locking arithmetic, and round pacing.
#include <gtest/gtest.h>

#include "src/mesos/mesos_simulation.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

SimOptions Opts(uint64_t seed = 1) {
  SimOptions o;
  o.horizon = Duration::FromHours(1);
  o.seed = seed;
  return o;
}

// Suppress arrivals so tests can drive submissions manually.
ClusterConfig QuietCluster() {
  ClusterConfig cfg = TestCluster(8);
  cfg.initial_utilization = 0.05;
  cfg.batch.interarrival_mean_secs = 1e9;
  cfg.service.interarrival_mean_secs = 1e9;
  return cfg;
}

JobPtr MakeJob(JobId id, JobType type, uint32_t tasks) {
  auto job = std::make_shared<Job>();
  job->id = id;
  job->type = type;
  job->num_tasks = tasks;
  job->task_resources = Resources{1.0, 2.0};
  job->task_duration = Duration::FromMinutes(30);
  job->precedence = DefaultPrecedence(type);
  return job;
}

TEST(MesosAllocatorTest, DrfOffersToFrameworkFurthestBelowShare) {
  MesosSimulation sim(QuietCluster(), Opts(), SchedulerConfig{},
                      SchedulerConfig{});
  // Batch grabs a big chunk first; then both frameworks have pending jobs and
  // the *service* framework (share 0) must be served first.
  sim.sim().ScheduleAt(SimTime::FromSeconds(1), [&] {
    sim.SubmitJob(MakeJob(1, JobType::kBatch, 12));
  });
  sim.sim().ScheduleAt(SimTime::FromSeconds(60), [&] {
    sim.SubmitJob(MakeJob(2, JobType::kBatch, 4));
    sim.SubmitJob(MakeJob(3, JobType::kService, 4));
  });
  sim.sim().RunUntil(SimTime::FromMinutes(10));
  const double batch_share = sim.allocator().DominantShare(&sim.batch_framework());
  const double service_share =
      sim.allocator().DominantShare(&sim.service_framework());
  // Both got their jobs placed eventually...
  EXPECT_GT(batch_share, 0.0);
  EXPECT_GT(service_share, 0.0);
  // ...and the service framework's first job started no later than the second
  // batch job finished scheduling (it had priority by DRF).
  EXPECT_EQ(sim.service_framework().metrics().JobsScheduled(JobType::kService), 1);
}

TEST(MesosAllocatorTest, OfferedPlusAvailableNeverExceedsCapacity) {
  MesosSimulation sim(QuietCluster(), Opts(2), SchedulerConfig{},
                      SchedulerConfig{});
  sim.sim().ScheduleAt(SimTime::FromSeconds(1), [&] {
    sim.SubmitJob(MakeJob(1, JobType::kBatch, 6));
    sim.SubmitJob(MakeJob(2, JobType::kService, 6));
  });
  // Probe invariants at several points in time.
  for (int s = 2; s <= 20; s += 3) {
    sim.sim().ScheduleAt(SimTime::FromSeconds(s), [&] {
      const Resources offered = sim.allocator().TotalOffered();
      const Resources available = sim.cell().TotalAvailable();
      EXPECT_TRUE(offered.FitsIn(available))
          << "offers must only cover unused resources";
    });
  }
  sim.sim().RunUntil(SimTime::FromMinutes(5));
}

TEST(MesosAllocatorTest, PacedRoundsDoNotStarveThroughput) {
  // Even with the 100 ms round pacing, a stream of small jobs schedules at
  // high rate (the pacing bounds allocator work, not framework throughput).
  ClusterConfig cfg = TestCluster(32);
  cfg.batch.interarrival_mean_secs = 0.5;
  cfg.service.interarrival_mean_secs = 1e9;
  MesosSimulation sim(cfg, Opts(3), SchedulerConfig{}, SchedulerConfig{});
  sim.Run();
  const int64_t submitted = sim.JobsSubmitted(JobType::kBatch);
  const int64_t scheduled =
      sim.batch_framework().metrics().JobsScheduled(JobType::kBatch);
  EXPECT_GT(submitted, 5000);
  EXPECT_GE(scheduled, submitted * 9 / 10);
}

TEST(MesosAllocatorTest, IdleFrameworkReceivesNoOffers) {
  MesosSimulation sim(QuietCluster(), Opts(4), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();  // no arrivals at all
  EXPECT_EQ(sim.batch_framework().metrics().TotalAttempts(), 0);
  EXPECT_EQ(sim.service_framework().metrics().TotalAttempts(), 0);
  EXPECT_TRUE(sim.allocator().TotalOffered().IsZero());
}

TEST(MesosAllocatorDeathTest, UnregisteredFrameworkAborts) {
  MesosSimulation sim(QuietCluster(), Opts(5), SchedulerConfig{},
                      SchedulerConfig{});
  MesosFramework stranger(sim, SchedulerConfig{}, JobType::kBatch);
  // DominantShare used to report 0.0 for a framework the allocator never
  // registered; it now fails like the accounting calls do.
  EXPECT_DEATH(sim.allocator().DominantShare(&stranger),
               "unregistered framework");
  EXPECT_DEATH(sim.allocator().OnResourcesAllocated(&stranger, Resources{1, 1}),
               "unregistered framework");
  EXPECT_DEATH(sim.allocator().OnResourcesFreed(&stranger, Resources{1, 1}),
               "unregistered framework");
}

}  // namespace
}  // namespace omega
