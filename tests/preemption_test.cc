#include <gtest/gtest.h>

#include "src/cluster/task_registry.h"
#include "src/trace/trace_recorder.h"
#include "src/omega/omega_scheduler.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

TEST(TaskRegistryTest, AddRemove) {
  TaskRegistry reg;
  const uint64_t a = reg.Add(0, Resources{1.0, 2.0}, 4);
  const uint64_t b = reg.Add(0, Resources{0.5, 1.0}, 10);
  EXPECT_EQ(reg.NumRunning(), 2u);
  EXPECT_EQ(reg.NumRunningOn(0), 2u);
  EXPECT_TRUE(reg.Remove(a));
  EXPECT_FALSE(reg.Remove(a));
  EXPECT_EQ(reg.NumRunning(), 1u);
  EXPECT_TRUE(reg.Remove(b));
}

TEST(TaskRegistryTest, PreemptibleSumsBelowPrecedence) {
  TaskRegistry reg;
  reg.Add(3, Resources{1.0, 1.0}, 4);   // batch
  reg.Add(3, Resources{2.0, 2.0}, 4);   // batch
  reg.Add(3, Resources{1.0, 4.0}, 10);  // service: not preemptible by 10
  const Resources pool = reg.PreemptibleOn(3, 10);
  EXPECT_DOUBLE_EQ(pool.cpus, 3.0);
  EXPECT_DOUBLE_EQ(pool.mem_gb, 3.0);
  EXPECT_TRUE(reg.PreemptibleOn(3, 4).IsZero());
  EXPECT_TRUE(reg.PreemptibleOn(99, 10).IsZero());
}

TEST(TaskRegistryTest, SelectVictimsLowestPrecedenceFirst) {
  TaskRegistry reg;
  reg.Add(0, Resources{1.0, 1.0}, 2);
  reg.Add(0, Resources{1.0, 1.0}, 6);
  const auto victims = reg.SelectVictims(0, 10, Resources{1.0, 1.0});
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].precedence, 2);
}

TEST(TaskRegistryTest, SelectVictimsEmptyWhenInsufficient) {
  TaskRegistry reg;
  reg.Add(0, Resources{1.0, 1.0}, 2);
  EXPECT_TRUE(reg.SelectVictims(0, 10, Resources{5.0, 1.0}).empty());
  // Equal precedence is never preemptible.
  EXPECT_TRUE(reg.SelectVictims(0, 2, Resources{0.5, 0.5}).empty());
}

TEST(TaskRegistryTest, SelectVictimsCoversNeedExactly) {
  TaskRegistry reg;
  for (int i = 0; i < 5; ++i) {
    reg.Add(0, Resources{1.0, 1.0}, 1);
  }
  const auto victims = reg.SelectVictims(0, 10, Resources{2.5, 0.0});
  Resources freed;
  for (const RunningTask& v : victims) {
    freed += v.resources;
  }
  EXPECT_TRUE(Resources({2.5, 0.0}).FitsIn(freed));
  EXPECT_LE(victims.size(), 3u);  // no more than necessary
}

// --- end-to-end preemption through the Omega scheduler ---

SimOptions PreemptRun(uint64_t seed = 1) {
  SimOptions o;
  o.horizon = Duration::FromHours(2);
  o.seed = seed;
  return o;
}

// A cell saturated with long batch work plus rare large service jobs: without
// preemption the service jobs starve; with it they evict batch tasks.
ClusterConfig SaturatedCell() {
  ClusterConfig cfg = TestCluster(8);
  cfg.initial_utilization = 0.05;
  cfg.batch.interarrival_mean_secs = 2.0;
  cfg.batch.tasks_per_job = std::make_shared<ConstantDist>(8.0);
  cfg.batch.cpus_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.mem_gb_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.task_duration_secs = std::make_shared<ConstantDist>(36000.0);
  cfg.service.interarrival_mean_secs = 900.0;
  cfg.service.tasks_per_job = std::make_shared<ConstantDist>(4.0);
  cfg.service.cpus_per_task = std::make_shared<ConstantDist>(2.0);
  cfg.service.mem_gb_per_task = std::make_shared<ConstantDist>(2.0);
  cfg.service.task_duration_secs = std::make_shared<ConstantDist>(36000.0);
  return cfg;
}

TEST(PreemptionTest, ServicePreemptsBatchWhenEnabled) {
  SchedulerConfig batch;
  batch.max_attempts = 20;
  batch.no_progress_backoff = Duration::FromSeconds(5);
  SchedulerConfig service = batch;
  service.enable_preemption = true;

  OmegaSimulation sim(SaturatedCell(), PreemptRun(), batch, service);
  sim.Run();
  EXPECT_GT(sim.TasksPreempted(), 0);
  EXPECT_GT(
      sim.service_scheduler().metrics().JobsScheduled(JobType::kService), 0);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(PreemptionTest, NoPreemptionWhenDisabled) {
  SchedulerConfig batch;
  batch.max_attempts = 20;
  batch.no_progress_backoff = Duration::FromSeconds(5);
  OmegaSimulation sim(SaturatedCell(), PreemptRun(2), batch, batch);
  sim.Run();
  EXPECT_EQ(sim.TasksPreempted(), 0);
}

TEST(PreemptionTest, PreemptionImprovesServiceOutcomes) {
  SchedulerConfig batch;
  batch.max_attempts = 20;
  batch.no_progress_backoff = Duration::FromSeconds(5);
  SchedulerConfig service_plain = batch;
  SchedulerConfig service_preempt = batch;
  service_preempt.enable_preemption = true;

  OmegaSimulation plain(SaturatedCell(), PreemptRun(3), batch, service_plain);
  OmegaSimulation preempt(SaturatedCell(), PreemptRun(3), batch,
                          service_preempt);
  plain.Run();
  preempt.Run();
  const SchedulerMetrics& preempt_metrics =
      preempt.service_scheduler().metrics();
  const SchedulerMetrics& plain_metrics = plain.service_scheduler().metrics();
  EXPECT_GE(preempt_metrics.JobsScheduled(JobType::kService),
            plain_metrics.JobsScheduled(JobType::kService));
  EXPECT_LE(preempt_metrics.JobsAbandonedTotal(),
            plain_metrics.JobsAbandonedTotal());
}

TEST(PreemptionTest, BatchNeverEvictsService) {
  // Batch precedence (4) is below service (10): even with preemption enabled
  // on the batch scheduler, service tasks are never victims, so abandoned
  // service work cannot be caused by batch.
  SchedulerConfig batch;
  batch.enable_preemption = true;
  batch.max_attempts = 20;
  batch.no_progress_backoff = Duration::FromSeconds(5);
  SchedulerConfig service = batch;
  service.enable_preemption = false;

  ClusterConfig cfg = SaturatedCell();
  // Flip the mix: service fills the cell first, batch then tries to preempt.
  cfg.service.interarrival_mean_secs = 20.0;
  cfg.batch.interarrival_mean_secs = 10.0;
  OmegaSimulation sim(cfg, PreemptRun(4), batch, service);
  sim.Run();
  // Batch may preempt other *batch* tasks (same precedence -> never), so no
  // preemptions can occur at all in this setup.
  EXPECT_EQ(sim.TasksPreempted(), 0);
}

TEST(PreemptionTest, PreemptionAccountedSeparatelyFromTransactions) {
  // Regression: eviction-won placements used to be recorded via
  // RecordTransaction(n, 0) with fabricated zero-seqnum claims, inflating
  // TasksAccepted and diluting the conflict fraction. They now flow through
  // RecordPreemption and stay out of the optimistic-commit counters.
  SchedulerConfig batch;
  batch.max_attempts = 20;
  batch.no_progress_backoff = Duration::FromSeconds(5);
  SchedulerConfig service = batch;
  service.enable_preemption = true;

  TraceRecorder trace;
  OmegaSimulation sim(SaturatedCell(), PreemptRun(), batch, service);
  sim.SetTraceRecorder(&trace);
  sim.Run();
  ASSERT_GT(sim.TasksPreempted(), 0);

  const SchedulerMetrics& sm = sim.service_scheduler().metrics();
  EXPECT_GT(sm.TasksPlacedByPreemption(), 0);
  EXPECT_GT(sm.PreemptionVictims(), 0);
  // Only the service scheduler preempts; its victim count is the harness's.
  EXPECT_EQ(sm.PreemptionVictims(), sim.TasksPreempted());
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    EXPECT_EQ(sim.batch_scheduler(i).metrics().TasksPlacedByPreemption(), 0);
    EXPECT_EQ(sim.batch_scheduler(i).metrics().PreemptionVictims(), 0);
  }

  // TasksAccepted must reconcile with the committed-transaction event stream
  // alone — with the old accounting it would exceed SumArg0(kTxnCommit) by
  // the preemption placements.
  int64_t accepted = sm.TasksAccepted();
  int64_t started = sm.TasksAccepted() + sm.TasksPlacedByPreemption();
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    const SchedulerMetrics& bm = sim.batch_scheduler(i).metrics();
    accepted += bm.TasksAccepted();
    started += bm.TasksAccepted() + bm.TasksPlacedByPreemption();
  }
  EXPECT_EQ(trace.SumArg0(TraceEventType::kTxnCommit), accepted);
  EXPECT_EQ(trace.CountOf(TraceEventType::kTaskStart), started);
  EXPECT_EQ(trace.CountOf(TraceEventType::kPreemption), sim.TasksPreempted());
}

// A preempting scheduler is all it takes to keep the registry that victim
// selection reads; without one the run keeps none.
TEST(PreemptionTest, PreemptingSchedulerKeepsRegistry) {
  SchedulerConfig service;
  service.enable_preemption = true;
  SimOptions opts;
  opts.horizon = Duration::FromHours(1);
  opts.seed = 5;
  OmegaSimulation preempting(SaturatedCell(), opts, SchedulerConfig{},
                             service);
  preempting.PrepareRun();
  EXPECT_GT(preempting.task_registry().NumRunning(), 0u);
  OmegaSimulation plain(SaturatedCell(), opts, SchedulerConfig{},
                        SchedulerConfig{});
  plain.PrepareRun();
  EXPECT_EQ(plain.task_registry().NumRunning(), 0u);
}

}  // namespace
}  // namespace omega
