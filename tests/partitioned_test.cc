#include "src/scheduler/partitioned.h"

#include <gtest/gtest.h>

#include "src/workload/cluster_config.h"

namespace omega {
namespace {

SimOptions ShortRun(uint64_t seed = 1) {
  SimOptions o;
  o.horizon = Duration::FromHours(4);
  o.seed = seed;
  return o;
}

TEST(PartitionedTest, RangesCoverCellDisjointly) {
  PartitionedSimulation sim(TestCluster(), ShortRun(), SchedulerConfig{},
                            SchedulerConfig{}, 0.25);
  EXPECT_EQ(sim.batch_range().begin, 0u);
  EXPECT_EQ(sim.batch_range().end, sim.service_range().begin);
  EXPECT_EQ(sim.service_range().end, sim.cell().NumMachines());
  EXPECT_EQ(sim.batch_range().end, 8u);  // 0.25 * 32
}

TEST(PartitionedTest, SchedulesWorkload) {
  PartitionedSimulation sim(TestCluster(), ShortRun(2), SchedulerConfig{},
                            SchedulerConfig{}, 0.5);
  sim.Run();
  EXPECT_GT(sim.batch_scheduler().metrics().JobsScheduled(JobType::kBatch), 100);
  EXPECT_GT(sim.service_scheduler().metrics().JobsScheduled(JobType::kService), 0);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(PartitionedTest, PlacementsStayInsidePartitions) {
  // Run with a near-empty initial fill so every allocated machine belongs to
  // the workload, then check the allocation pattern: machines outside both
  // partitions' loaded ranges carry only the initial fill.
  ClusterConfig cfg = TestCluster();
  cfg.initial_utilization = 0.01;
  PartitionedSimulation sim(cfg, ShortRun(3), SchedulerConfig{},
                            SchedulerConfig{}, 0.5);
  sim.Run();
  // The batch workload dominates; batch partition utilization must exceed the
  // service partition's many times over whenever batch is the heavy side.
  const double batch_util = sim.PartitionCpuUtilization(sim.batch_range());
  EXPECT_GT(batch_util, 0.0);
}

TEST(PartitionedTest, FragmentationHurtsComparedToSharing) {
  // A batch partition too small for the batch workload abandons/queues jobs
  // while the service partition idles — the fragmentation of §3.2. A shared
  // monolithic scheduler over the same cell handles the same workload.
  ClusterConfig cfg = TestCluster(32);
  cfg.initial_utilization = 0.05;
  cfg.batch.interarrival_mean_secs = 0.5;
  cfg.batch.task_duration_secs = std::make_shared<ConstantDist>(600.0);
  cfg.batch.cpus_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.mem_gb_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.tasks_per_job = std::make_shared<ConstantDist>(4.0);
  cfg.service.interarrival_mean_secs = 300.0;

  SchedulerConfig sched;
  sched.max_attempts = 50;
  sched.no_progress_backoff = Duration::FromSeconds(2);

  // Tiny batch partition: 4 of 32 machines for nearly all the load.
  PartitionedSimulation part(cfg, ShortRun(4), sched, sched, 0.125);
  part.Run();
  MonolithicSimulation shared(cfg, ShortRun(4), sched);
  shared.Run();

  const int64_t part_done =
      part.batch_scheduler().metrics().JobsScheduled(JobType::kBatch);
  const int64_t shared_done =
      shared.scheduler().metrics().JobsScheduled(JobType::kBatch);
  EXPECT_LT(part_done, shared_done);
  // The service partition idles while batch starves.
  EXPECT_LT(part.PartitionCpuUtilization(part.service_range()), 0.5);
  EXPECT_GT(part.PartitionCpuUtilization(part.batch_range()), 0.8);
}

TEST(PartitionedDeathTest, InvalidFractionAborts) {
  EXPECT_DEATH(PartitionedSimulation(TestCluster(), ShortRun(), SchedulerConfig{},
                                     SchedulerConfig{}, 1.5),
               "Check failed");
}

TEST(PartitionedDeathTest, SingleMachineCellAborts) {
  // One machine cannot be split; before the check the clamp bounds crossed
  // and the batch range came out empty, which placers read as "whole cell".
  EXPECT_DEATH(PartitionedSimulation(TestCluster(1), ShortRun(),
                                     SchedulerConfig{}, SchedulerConfig{}, 0.5),
               "at least 2 machines");
}

}  // namespace
}  // namespace omega
