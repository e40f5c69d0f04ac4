#include "src/workload/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "src/workload/characterization.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

TEST(ClusterConfigTest, AllClustersWellFormed) {
  for (const char* name : {"A", "B", "C", "D"}) {
    const ClusterConfig c = ClusterByName(name);
    EXPECT_EQ(c.name, name);
    EXPECT_GT(c.num_machines, 0u);
    EXPECT_GT(c.machine_capacity.cpus, 0.0);
    EXPECT_GT(c.machine_capacity.mem_gb, 0.0);
    EXPECT_GT(c.batch.interarrival_mean_secs, 0.0);
    EXPECT_GT(c.service.interarrival_mean_secs, 0.0);
    // Batch jobs arrive far more often than service jobs (>80% batch, §2.1).
    EXPECT_LT(c.batch.interarrival_mean_secs, c.service.interarrival_mean_secs);
    EXPECT_GT(c.initial_utilization, 0.0);
    EXPECT_LT(c.initial_utilization, 1.0);
  }
}

TEST(ClusterConfigTest, RelativeSizes) {
  // B and C are large clusters; A medium; D small (about a quarter of C).
  EXPECT_GT(ClusterB().num_machines, ClusterA().num_machines);
  EXPECT_GT(ClusterC().num_machines, ClusterA().num_machines);
  EXPECT_LT(ClusterD().num_machines, ClusterA().num_machines);
  EXPECT_NEAR(static_cast<double>(ClusterD().num_machines) /
                  ClusterC().num_machines,
              0.25, 0.05);
}

TEST(ClusterConfigDeathTest, UnknownClusterAborts) {
  EXPECT_DEATH(ClusterByName("Z"), "unknown cluster");
}

TEST(GeneratorTest, DeterministicForSeed) {
  const ClusterConfig cfg = TestCluster();
  WorkloadGenerator g1(cfg, {}, 42);
  WorkloadGenerator g2(cfg, {}, 42);
  const auto jobs1 = g1.GenerateArrivals(Duration::FromHours(2));
  const auto jobs2 = g2.GenerateArrivals(Duration::FromHours(2));
  ASSERT_EQ(jobs1.size(), jobs2.size());
  for (size_t i = 0; i < jobs1.size(); ++i) {
    EXPECT_EQ(jobs1[i].id, jobs2[i].id);
    EXPECT_EQ(jobs1[i].submit_time, jobs2[i].submit_time);
    EXPECT_EQ(jobs1[i].num_tasks, jobs2[i].num_tasks);
    EXPECT_EQ(jobs1[i].task_resources, jobs2[i].task_resources);
  }
}

TEST(GeneratorTest, ArrivalsSortedAndWithinHorizon) {
  WorkloadGenerator gen(TestCluster(), {}, 7);
  const Duration horizon = Duration::FromHours(4);
  const auto jobs = gen.GenerateArrivals(horizon);
  ASSERT_FALSE(jobs.empty());
  for (size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_LE(jobs[i - 1].submit_time, jobs[i].submit_time);
  }
  for (const Job& j : jobs) {
    EXPECT_LE(j.submit_time, SimTime::Zero() + horizon);
    EXPECT_GE(j.num_tasks, 1u);
    EXPECT_GT(j.task_duration.micros(), 0);
    EXPECT_GT(j.task_resources.cpus, 0.0);
    EXPECT_GT(j.task_resources.mem_gb, 0.0);
  }
}

TEST(GeneratorTest, UniqueJobIds) {
  WorkloadGenerator gen(TestCluster(), {}, 9);
  const auto jobs = gen.GenerateArrivals(Duration::FromHours(8));
  std::set<JobId> ids;
  for (const Job& j : jobs) {
    EXPECT_TRUE(ids.insert(j.id).second);
  }
}

TEST(GeneratorTest, InterarrivalMeanMatchesConfig) {
  const ClusterConfig cfg = TestCluster();
  WorkloadGenerator gen(cfg, {}, 13);
  const auto jobs = gen.GenerateArrivals(Duration::FromHours(48));
  int64_t batch_jobs = 0;
  for (const Job& j : jobs) {
    if (j.type == JobType::kBatch) {
      ++batch_jobs;
    }
  }
  const double expected = 48.0 * 3600.0 / cfg.batch.interarrival_mean_secs;
  EXPECT_NEAR(batch_jobs, expected, expected * 0.1);
}

TEST(GeneratorTest, ConstraintsOnlyWhenEnabled) {
  WorkloadGenerator gen(TestCluster(), {}, 15);
  for (const Job& j : gen.GenerateArrivals(Duration::FromHours(12))) {
    EXPECT_TRUE(j.constraints.empty());
  }
}

TEST(GeneratorTest, ConstraintsHaveDistinctKeys) {
  GeneratorOptions opts;
  opts.generate_constraints = true;
  ClusterConfig cfg = TestCluster();
  cfg.service_constrained_fraction = 1.0;
  cfg.batch_constrained_fraction = 1.0;
  WorkloadGenerator gen(cfg, opts, 17);
  int constrained = 0;
  for (const Job& j : gen.GenerateArrivals(Duration::FromHours(12))) {
    if (j.constraints.empty()) {
      continue;
    }
    ++constrained;
    std::set<int32_t> keys;
    for (const PlacementConstraint& c : j.constraints) {
      EXPECT_TRUE(keys.insert(c.attribute_key).second)
          << "duplicate constraint key would make the job unsatisfiable";
      EXPECT_GE(c.attribute_key, 0);
      EXPECT_LT(c.attribute_key, opts.num_attribute_keys);
      EXPECT_GE(c.attribute_value, 0);
      EXPECT_LT(c.attribute_value, opts.num_attribute_values);
    }
  }
  EXPECT_GT(constrained, 0);
}

TEST(GeneratorTest, MapReduceSpecsAttachedToBatchOnly) {
  GeneratorOptions opts;
  opts.generate_mapreduce_specs = true;
  ClusterConfig cfg = TestCluster();
  cfg.mapreduce_fraction = 0.5;
  WorkloadGenerator gen(cfg, opts, 19);
  int mr = 0;
  int batch = 0;
  int with_headroom = 0;
  for (const Job& j : gen.GenerateArrivals(Duration::FromHours(24))) {
    if (j.type == JobType::kService) {
      EXPECT_FALSE(j.mapreduce.has_value());
      continue;
    }
    ++batch;
    if (j.mapreduce.has_value()) {
      ++mr;
      EXPECT_GT(j.mapreduce->num_map_activities, 0);
      EXPECT_GT(j.mapreduce->requested_workers, 0);
      if (j.mapreduce->num_map_activities >= j.mapreduce->requested_workers) {
        ++with_headroom;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(mr) / batch, 0.5, 0.1);
  // Most — but deliberately not all — MapReduce jobs have more activities
  // than workers, i.e. headroom for opportunistic speedup (§6.1 / Fig. 15:
  // only 50-70% of jobs can benefit).
  EXPECT_GT(static_cast<double>(with_headroom) / mr, 0.5);
  EXPECT_LT(static_cast<double>(with_headroom) / mr, 0.95);
}

TEST(GeneratorTest, InitialTasksMostlyLongLived) {
  WorkloadGenerator gen(ClusterA(), {}, 21);
  int64_t longer_than_day = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const auto task = gen.SampleInitialTask();
    EXPECT_GT(task.resources.cpus, 0.0);
    EXPECT_GE(task.remaining.micros(), 0);
    if (task.remaining > Duration::FromDays(1)) {
      ++longer_than_day;
    }
  }
  // Length-biased sampling: a solid fraction of the standing population
  // remains beyond a day (the long-lived service stock).
  EXPECT_GT(longer_than_day, n / 4);
}

// Renewal theory: a task found running at an instant has duration drawn from
// d dF(d) / E[d] and a residual uniform over it, so the mean residual is
// E[d^2] / (2 E[d]). Batch durations are clamped below the 30-day cap, so the
// cap plays no part. The reference moments come from plain Sample() draws.
TEST(GeneratorTest, BatchStandingResidualMeanMatchesRenewalTheory) {
  for (const ClusterConfig& config : {ClusterA(), TestCluster()}) {
    Rng rng(41);
    double sum_d = 0.0;
    double sum_d2 = 0.0;
    for (int i = 0; i < 8000000; ++i) {
      const double d = config.batch.task_duration_secs->Sample(rng);
      sum_d += d;
      sum_d2 += d * d;
    }
    const double expected = sum_d2 / (2.0 * sum_d);

    WorkloadGenerator gen(config, {}, 43);
    const int32_t batch = DefaultPrecedence(JobType::kBatch);
    double sum_residual = 0.0;
    int n = 0;
    while (n < 400000) {
      const auto task = gen.SampleInitialTask();
      if (task.precedence == batch) {
        sum_residual += task.remaining.ToSeconds();
        ++n;
      }
    }
    EXPECT_NEAR(sum_residual / n / expected, 1.0, 0.03)
        << config.name << ": expected " << expected << " s";
  }
}

TEST(MachineAttributesTest, DeterministicAndInRange) {
  GeneratorOptions a;
  a.num_attribute_keys = 5;
  a.num_attribute_values = 3;
  const auto attrs1 = GenerateMachineAttributes(100, a, 77);
  const auto attrs2 = GenerateMachineAttributes(100, a, 77);
  EXPECT_EQ(attrs1, attrs2);
  ASSERT_EQ(attrs1.size(), 100u);
  for (const auto& machine : attrs1) {
    ASSERT_EQ(machine.size(), 5u);
    for (int32_t v : machine) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 3);
    }
  }
}

TEST(CharacterizationTest, SharesMatchPaperShape) {
  // Use a full-size cluster over several days so the shares stabilize.
  WorkloadGenerator gen(ClusterB(), {}, 23);
  const Duration window = Duration::FromDays(3);
  const auto jobs = gen.GenerateArrivals(window);
  const WorkloadCharacterization ch = Characterize(jobs, window);
  // >80% of jobs are batch (§2.1).
  EXPECT_GT(1.0 - ch.ServiceJobFraction(), 0.8);
  // The majority of resources go to service jobs (55-80% in the paper; our
  // synthetic calibration targets that band loosely).
  EXPECT_GT(ch.ServiceCpuFraction(), 0.4);
  // Service jobs run longer: compare median runtimes.
  EXPECT_GT(ch.service_runtime.Quantile(0.5), ch.batch_runtime.Quantile(0.5));
  // A visible fraction of service jobs outlives a month.
  EXPECT_GT(ch.service_over_month_fraction, 0.03);
}

TEST(CharacterizationTest, EmptyInput) {
  const WorkloadCharacterization ch = Characterize({}, Duration::FromDays(1));
  EXPECT_EQ(ch.batch.jobs, 0.0);
  EXPECT_EQ(ch.ServiceJobFraction(), 0.0);
  EXPECT_EQ(ch.service_over_month_fraction, 0.0);
}

TEST(CharacterizationTest, RuntimeCappedAtWindow) {
  Job j;
  j.type = JobType::kService;
  j.submit_time = SimTime::Zero();
  j.num_tasks = 1;
  j.task_duration = Duration::FromDays(100);
  j.task_resources = Resources{1.0, 1.0};
  const auto ch = Characterize({j}, Duration::FromDays(30));
  EXPECT_DOUBLE_EQ(ch.service_runtime.MaxValue(), 30.0 * 86400.0);
  EXPECT_DOUBLE_EQ(ch.service_over_month_fraction, 1.0);
  EXPECT_DOUBLE_EQ(ch.service.cpu_seconds, 30.0 * 86400.0);
}

}  // namespace
}  // namespace omega
