#include "src/hifi/hifi_simulation.h"

#include <gtest/gtest.h>

#include "src/workload/cluster_config.h"

namespace omega {
namespace {

SimOptions ShortRun(uint64_t seed = 1) {
  SimOptions o;
  o.horizon = Duration::FromHours(2);
  o.seed = seed;
  return o;
}

TEST(HifiTest, TraceGenerationDeterministic) {
  const auto t1 = GenerateHifiTrace(TestCluster(), Duration::FromHours(2), 5);
  const auto t2 = GenerateHifiTrace(TestCluster(), Duration::FromHours(2), 5);
  ASSERT_EQ(t1.size(), t2.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].id, t2[i].id);
    EXPECT_EQ(t1[i].submit_time, t2[i].submit_time);
  }
}

TEST(HifiTest, TraceCarriesConstraintsAndMapReduceSpecs) {
  ClusterConfig cfg = TestCluster();
  cfg.service_constrained_fraction = 0.8;
  cfg.mapreduce_fraction = 0.5;
  const auto trace = GenerateHifiTrace(cfg, Duration::FromHours(6), 5);
  int constrained = 0;
  int mapreduce = 0;
  for (const Job& j : trace) {
    constrained += j.constraints.empty() ? 0 : 1;
    mapreduce += j.mapreduce.has_value() ? 1 : 0;
  }
  EXPECT_GT(constrained, 0);
  EXPECT_GT(mapreduce, 0);
}

TEST(HifiTest, ReplaySchedulesTrace) {
  auto sim = MakeHifiSimulation(TestCluster(), ShortRun(), SchedulerConfig{},
                                SchedulerConfig{});
  auto trace = GenerateHifiTrace(TestCluster(), Duration::FromHours(2), 7);
  const auto submitted = static_cast<int64_t>(trace.size());
  sim->RunTrace(std::move(trace));
  EXPECT_EQ(sim->JobsSubmittedTotal(), submitted);
  int64_t scheduled =
      sim->service_scheduler().metrics().JobsScheduled(JobType::kService);
  for (uint32_t i = 0; i < sim->NumBatchSchedulers(); ++i) {
    scheduled +=
        sim->batch_scheduler(i).metrics().JobsScheduled(JobType::kBatch);
  }
  EXPECT_GE(scheduled + sim->TotalJobsAbandoned(), submitted - 10);
  EXPECT_TRUE(sim->cell().CheckInvariants());
}

// Replay sets up exactly as a generated run does, failure stream included:
// the high-fidelity simulator is trace-driven (Table 2), and failure
// injection must not depend on where the jobs come from.
TEST(HifiTest, ReplayFailsMachines) {
  SimOptions opts = ShortRun(9);
  opts.machine_failure_rate_per_day = 5.0;
  opts.machine_repair_time = Duration::FromMinutes(10);
  auto sim = MakeHifiSimulation(TestCluster(64), opts, SchedulerConfig{},
                                SchedulerConfig{});
  sim->RunTrace(GenerateHifiTrace(TestCluster(64), opts.horizon, 9));
  EXPECT_GT(sim->MachineFailures(), 0);
  EXPECT_GT(sim->TasksKilledByFailures(), 0);
  EXPECT_TRUE(sim->cell().CheckInvariants());
}

TEST(HifiTest, MachinesCarryAttributes) {
  auto sim = MakeHifiSimulation(TestCluster(), ShortRun(2), SchedulerConfig{},
                                SchedulerConfig{});
  HifiOptions defaults;
  for (MachineId m = 0; m < sim->cell().NumMachines(); ++m) {
    EXPECT_EQ(sim->cell().machine(m).attributes.size(),
              static_cast<size_t>(defaults.num_attribute_keys));
  }
}

TEST(HifiTest, HeadroomPolicyActive) {
  auto sim = MakeHifiSimulation(TestCluster(), ShortRun(3), SchedulerConfig{},
                                SchedulerConfig{});
  EXPECT_EQ(sim->cell().fullness_policy(), FullnessPolicy::kHeadroom);
  const Resources usable = sim->cell().UsableCapacity(0);
  EXPECT_LT(usable.cpus, sim->cell().machine(0).capacity.cpus);
}

TEST(HifiTest, AvailabilityIndexEnabled) {
  auto sim = MakeHifiSimulation(TestCluster(), ShortRun(4), SchedulerConfig{},
                                SchedulerConfig{});
  EXPECT_TRUE(sim->cell().HasAvailabilityIndex());
}

TEST(HifiTest, MultipleBatchSchedulers) {
  HifiOptions hifi;
  hifi.num_batch_schedulers = 3;
  auto sim = MakeHifiSimulation(TestCluster(), ShortRun(5), SchedulerConfig{},
                                SchedulerConfig{}, hifi);
  auto trace = GenerateHifiTrace(TestCluster(), Duration::FromHours(2), 8);
  sim->RunTrace(std::move(trace));
  EXPECT_EQ(sim->NumBatchSchedulers(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_GT(
        sim->batch_scheduler(i).metrics().JobsScheduled(JobType::kBatch), 0);
  }
}

TEST(HifiTest, HigherInterferenceThanLightweight) {
  // The high-fidelity simulator reports more interference than the
  // lightweight one (§5: constraints + stricter fullness + careful placement).
  // Compare conflicted tasks under identical decision-time settings: the
  // lightweight randomized first fit spreads claims and rarely collides,
  // while best-fit concentration collides often.
  ClusterConfig cfg = TestCluster(64);
  cfg.batch.interarrival_mean_secs = 0.5;
  cfg.service.interarrival_mean_secs = 20.0;
  SchedulerConfig sched;
  sched.batch_times.t_job = Duration::FromSeconds(0.5);
  sched.service_times.t_job = Duration::FromSeconds(5.0);

  SimOptions opts = ShortRun(6);
  OmegaSimulation light(cfg, opts, sched, sched);
  light.Run();

  auto hifi = MakeHifiSimulation(cfg, opts, sched, sched);
  auto trace = GenerateHifiTrace(cfg, opts.horizon, 6);
  hifi->RunTrace(std::move(trace));

  auto conflicts = [](OmegaSimulation& sim) {
    int64_t c = sim.service_scheduler().metrics().TasksConflicted();
    for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
      c += sim.batch_scheduler(i).metrics().TasksConflicted();
    }
    return c;
  };
  EXPECT_GE(conflicts(*hifi), conflicts(light));
}

}  // namespace
}  // namespace omega
