// Machine failure injection and heterogeneous cells — the two simplifications
// the paper's simulators made ("does not model machine failures"; lightweight
// machines are homogeneous) that this implementation can lift.
#include <gtest/gtest.h>

#include <set>

#include "src/omega/omega_scheduler.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

TEST(HeterogeneityTest, HomogeneousByDefault) {
  const auto caps = BuildMachineCapacities(TestCluster(10));
  ASSERT_EQ(caps.size(), 10u);
  for (const Resources& c : caps) {
    EXPECT_EQ(c, TestCluster().machine_capacity);
  }
}

TEST(HeterogeneityTest, ClassesInterleavedByFraction) {
  ClusterConfig cfg = TestCluster(1000);
  cfg.machine_classes = {
      {Resources{4.0, 16.0}, 0.6},
      {Resources{8.0, 32.0}, 0.3},
      {Resources{16.0, 64.0}, 0.1},
  };
  const auto caps = BuildMachineCapacities(cfg);
  int small = 0;
  int medium = 0;
  int large = 0;
  for (const Resources& c : caps) {
    if (c.cpus == 4.0) {
      ++small;
    } else if (c.cpus == 8.0) {
      ++medium;
    } else {
      ++large;
    }
  }
  EXPECT_NEAR(small, 600, 30);
  EXPECT_NEAR(medium, 300, 30);
  EXPECT_NEAR(large, 100, 30);
  // Interleaved, not blocked: the first 20 machines already mix classes.
  std::set<double> first_20;
  for (int i = 0; i < 20; ++i) {
    first_20.insert(caps[i].cpus);
  }
  EXPECT_GE(first_20.size(), 2u);
}

TEST(HeterogeneityTest, CellTotalsReflectMixedCapacities) {
  CellState cell({Resources{4.0, 16.0}, Resources{8.0, 32.0}});
  EXPECT_EQ(cell.TotalCapacity(), (Resources{12.0, 48.0}));
  EXPECT_EQ(cell.machine(1).capacity, (Resources{8.0, 32.0}));
}

TEST(HeterogeneityTest, SimulationRunsOnMixedCell) {
  ClusterConfig cfg = TestCluster(64);
  cfg.machine_classes = {
      {Resources{4.0, 16.0}, 0.7},
      {Resources{8.0, 32.0}, 0.3},
  };
  SimOptions opts;
  opts.horizon = Duration::FromHours(2);
  opts.seed = 11;
  OmegaSimulation sim(cfg, opts, SchedulerConfig{}, SchedulerConfig{});
  sim.Run();
  EXPECT_GT(sim.batch_scheduler(0).metrics().JobsScheduled(JobType::kBatch),
            50);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

SimOptions FailureOpts(uint64_t seed, double rate_per_day) {
  SimOptions o;
  o.horizon = Duration::FromHours(6);
  o.seed = seed;
  o.track_running_tasks = true;
  o.machine_failure_rate_per_day = rate_per_day;
  o.machine_repair_time = Duration::FromMinutes(30);
  return o;
}

TEST(FailureInjectionTest, FailuresOccurAtConfiguredRate) {
  OmegaSimulation sim(TestCluster(64), FailureOpts(1, 1.0), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  // 64 machines * 1/day * 0.25 days = ~16 expected failures.
  EXPECT_GT(sim.MachineFailures(), 4);
  EXPECT_LT(sim.MachineFailures(), 48);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(FailureInjectionTest, NoFailuresWhenDisabled) {
  SimOptions opts = FailureOpts(2, 0.0);
  OmegaSimulation sim(TestCluster(64), opts, SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  EXPECT_EQ(sim.MachineFailures(), 0);
  EXPECT_EQ(sim.TasksKilledByFailures(), 0);
}

TEST(FailureInjectionTest, FailuresKillRunningTasks) {
  // A busy cell: failures should land on occupied machines.
  ClusterConfig cfg = TestCluster(32);
  cfg.initial_utilization = 0.6;
  OmegaSimulation sim(cfg, FailureOpts(3, 4.0), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  EXPECT_GT(sim.MachineFailures(), 0);
  EXPECT_GT(sim.TasksKilledByFailures(), 0);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(FailureInjectionTest, MachinesRepairAndReturn) {
  OmegaSimulation sim(TestCluster(16), FailureOpts(4, 8.0), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  EXPECT_GT(sim.MachineFailures(), 0);
  // Repair time (30 min) is far shorter than the horizon: almost everything
  // failed early has been repaired; at most a handful remain down.
  EXPECT_LE(sim.MachinesDown(), 4);
  EXPECT_GE(sim.MachinesDown(), 0);
}

TEST(FailureInjectionTest, WorkloadStillSchedules) {
  OmegaSimulation sim(TestCluster(64), FailureOpts(5, 2.0), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  const int64_t scheduled =
      sim.batch_scheduler(0).metrics().JobsScheduled(JobType::kBatch);
  EXPECT_GT(scheduled, 100);
}

// Failures and preemption kill tasks while their end events stay queued; a
// killed task's end event must then free nothing. After every slice, each
// machine that is up holds exactly the resources of the tasks the registry
// says run there. A stale end event that freed again would leave an up
// machine's allocation below that sum, or, on a machine that is down, make
// the repair's release of its reservation fail the negative-allocation CHECK.
TEST(FailureInjectionTest, KilledTasksEndEventsFreeNothing) {
  ClusterConfig cfg = TestCluster(32);
  cfg.initial_utilization = 0.8;
  // Long batch tasks keep the cell full, so service jobs must preempt.
  cfg.batch.task_duration_secs = std::make_shared<ConstantDist>(3 * 3600.0);
  SimOptions opts = FailureOpts(7, 12.0);
  opts.machine_repair_time = Duration::FromMinutes(5);
  SchedulerConfig service;
  service.enable_preemption = true;
  OmegaSimulation sim(cfg, opts, SchedulerConfig{}, service);
  const auto expect_allocation_matches_registry = [&sim] {
    for (MachineId m = 0; m < sim.cell().NumMachines(); ++m) {
      if (sim.MachineIsDown(m)) {
        continue;
      }
      Resources running;
      for (const RunningTask& task : sim.task_registry().TasksOn(m)) {
        running += task.resources;
      }
      const Resources allocated = sim.cell().Allocated(m);
      EXPECT_NEAR(allocated.cpus, running.cpus, 1e-6) << "machine " << m;
      EXPECT_NEAR(allocated.mem_gb, running.mem_gb, 1e-6) << "machine " << m;
    }
  };
  sim.PrepareRun();
  // Ten-minute slices to the 6 h horizon; stop at the first mismatch.
  for (int slice = 1; slice <= 36 && !HasFailure(); ++slice) {
    sim.sim().RunUntil(SimTime::Zero() + Duration::FromMinutes(10 * slice));
    expect_allocation_matches_registry();
  }
  EXPECT_EQ(sim.sim().Now(), sim.EndTime());
  EXPECT_GT(sim.TasksKilledByFailures(), 0);
  EXPECT_GT(sim.TasksPreempted(), 0);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(FailureInjectionDeathTest, RequiresRegistry) {
  SimOptions opts = FailureOpts(6, 1.0);
  opts.track_running_tasks = false;
  OmegaSimulation sim(TestCluster(16), opts, SchedulerConfig{},
                      SchedulerConfig{});
  EXPECT_DEATH(sim.Run(), "track_running_tasks");
}

}  // namespace
}  // namespace omega
