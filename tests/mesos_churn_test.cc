// Regression tests for allocator accounting under task-kill churn.
//
// Machine failures (and preemption) cancel a running task's end event. The
// end event is what runs the framework's end-of-life callback, which credits
// the DRF allocator via OnResourcesFreed — so a cancelled event used to leak
// the killed task's resources in the allocator's per-framework account
// forever. RunEndCallbackForKill now runs the callback on the kill path;
// these tests drive heavy kill churn through the Mesos harness and assert
// the accounts drain back to zero.
#include <gtest/gtest.h>

#include <memory>

#include "src/mesos/mesos_simulation.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

// A cell with no synthetic load at all: no arrivals, no initial fill. Every
// allocated resource in the run is traceable to a job this test injects, so
// the end-of-run allocator accounts have exact expected values.
ClusterConfig QuietCell(uint32_t machines) {
  ClusterConfig cfg = TestCluster(machines);
  cfg.initial_utilization = 0.0;
  return cfg;
}

SimOptions ChurnOptions(uint64_t seed) {
  SimOptions o;
  o.horizon = Duration::FromHours(2);
  o.seed = seed;
  o.batch_rate_multiplier = 0.0;  // no generator arrivals
  o.service_rate_multiplier = 0.0;
  o.machine_failure_rate_per_day = 100.0;
  o.machine_repair_time = Duration::FromSeconds(300);
  return o;
}

JobPtr MakeBatchJob(JobId id, SimTime submit, uint32_t tasks) {
  auto job = std::make_shared<Job>();
  job->id = id;
  job->type = JobType::kBatch;
  job->submit_time = submit;
  job->num_tasks = tasks;
  // Unit-resource tasks keep the allocator arithmetic exact: every credit
  // and debit is a sum of 1.0s, so a drained account is exactly zero.
  job->task_resources = Resources{1.0, 1.0};
  job->task_duration = Duration::FromSeconds(900);
  job->precedence = DefaultPrecedence(JobType::kBatch);
  return job;
}

TEST(MesosChurnTest, KilledTasksDrainAllocatorAccounts) {
  MesosSimulation sim(QuietCell(16), ChurnOptions(11), SchedulerConfig{},
                      SchedulerConfig{});
  // Stagger 30 jobs over the first ~15 minutes; with 900 s tasks and a
  // failure every ~minute, many tasks die mid-flight. All work — completed
  // or killed — is long over by the 2 h horizon.
  for (uint32_t i = 0; i < 30; ++i) {
    const SimTime when =
        SimTime::Zero() + Duration::FromSeconds(30.0 * (i + 1));
    JobPtr job = MakeBatchJob(/*id=*/1000 + i, when, /*tasks=*/8);
    sim.sim().ScheduleAt(when, [&sim, job] { sim.InjectJob(job); });
  }
  sim.Run();

  // The churn actually happened: tasks ran and tasks were killed.
  EXPECT_GT(sim.batch_framework().metrics().TasksAccepted(), 0);
  EXPECT_GT(sim.TasksKilledByFailures(), 0);

  // The regression: killed tasks' end callbacks must have credited the
  // allocator, so both DRF accounts are back to exactly zero.
  EXPECT_EQ(sim.allocator().DominantShare(&sim.batch_framework()), 0.0);
  EXPECT_EQ(sim.allocator().DominantShare(&sim.service_framework()), 0.0);
  EXPECT_TRUE(sim.allocator().TotalOffered().IsZero());
  EXPECT_TRUE(sim.batch_framework().HoardedResources().IsZero());
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(MesosChurnTest, SustainedChurnKeepsSharesBounded) {
  // With generator arrivals flowing for four hours and failures killing
  // tasks throughout, a leak in the kill path accumulates without bound and
  // pushes the dominant share far past 1. A correct account can never
  // exceed the cell (running + hoarded resources fit inside capacity).
  ClusterConfig cfg = TestCluster(16);
  SimOptions o;
  o.horizon = Duration::FromHours(4);
  o.seed = 12;
  o.machine_failure_rate_per_day = 50.0;
  o.machine_repair_time = Duration::FromSeconds(600);
  MesosSimulation sim(cfg, o, SchedulerConfig{}, SchedulerConfig{});
  sim.Run();

  EXPECT_GT(sim.TasksKilledByFailures(), 0);
  for (MesosFramework* fw :
       {&sim.batch_framework(), &sim.service_framework()}) {
    const double share = sim.allocator().DominantShare(fw);
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
  }
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(MesosChurnTest, GangHoardingSurvivesChurn) {
  // Gang-scheduled (all-or-nothing) jobs hoard partial placements; failures
  // interleaved with hoarding must not corrupt either the hoard ledger or
  // the DRF account.
  ClusterConfig cfg = TestCluster(16);
  SimOptions o;
  o.horizon = Duration::FromHours(2);
  o.seed = 13;
  o.machine_failure_rate_per_day = 50.0;
  o.machine_repair_time = Duration::FromSeconds(600);
  SchedulerConfig gang_batch;
  gang_batch.commit_mode = CommitMode::kAllOrNothing;
  gang_batch.max_attempts = 50;  // break hoarding deadlocks promptly
  MesosSimulation sim(cfg, o, gang_batch, SchedulerConfig{});
  sim.Run();

  EXPECT_GT(sim.batch_framework().metrics().TasksAccepted(), 0);
  for (MesosFramework* fw :
       {&sim.batch_framework(), &sim.service_framework()}) {
    const double share = sim.allocator().DominantShare(fw);
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
  }
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

}  // namespace
}  // namespace omega
