#include "src/mapreduce/mr_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/common/stats.h"
#include "src/mapreduce/perf_model.h"
#include "src/mapreduce/policy.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

MapReduceSpec SimpleSpec() {
  MapReduceSpec spec;
  spec.num_map_activities = 1000;
  spec.num_reduce_activities = 300;
  spec.map_activity_duration = Duration::FromSeconds(60);
  spec.reduce_activity_duration = Duration::FromSeconds(120);
  spec.requested_workers = 10;
  return spec;
}

TEST(PerfModelTest, WaveArithmetic) {
  const MapReduceSpec spec = SimpleSpec();
  // 10 workers: 100 map waves * 60s + 30 reduce waves * 120s.
  EXPECT_EQ(PredictCompletionTime(spec, 10),
            Duration::FromSeconds(100 * 60 + 30 * 120));
  // 1000 workers: 1 map wave + 1 reduce wave.
  EXPECT_EQ(PredictCompletionTime(spec, 1000), Duration::FromSeconds(60 + 120));
}

TEST(PerfModelTest, MonotoneNonIncreasingInWorkers) {
  const MapReduceSpec spec = SimpleSpec();
  Duration prev = PredictCompletionTime(spec, 1);
  for (int64_t w = 2; w <= 1200; w += 7) {
    const Duration t = PredictCompletionTime(spec, w);
    EXPECT_LE(t, prev) << "w=" << w;
    prev = t;
  }
}

TEST(PerfModelTest, NoBenefitBeyondMaxActivities) {
  const MapReduceSpec spec = SimpleSpec();
  EXPECT_EQ(MaxBeneficialWorkers(spec), 1000);
  EXPECT_EQ(PredictCompletionTime(spec, 1000), PredictCompletionTime(spec, 5000));
}

TEST(PerfModelTest, SpeedupRelativeToRequested) {
  const MapReduceSpec spec = SimpleSpec();
  EXPECT_DOUBLE_EQ(PredictSpeedup(spec, spec.requested_workers), 1.0);
  EXPECT_GT(PredictSpeedup(spec, 100), 1.0);
  // Idealized linear speedup: 10x workers -> ~10x faster (§6.1).
  EXPECT_NEAR(PredictSpeedup(spec, 100), 10.0, 1.0);
}

TEST(PerfModelTest, ZeroReducePhase) {
  MapReduceSpec spec = SimpleSpec();
  spec.num_reduce_activities = 0;
  EXPECT_EQ(PredictCompletionTime(spec, 10), Duration::FromSeconds(100 * 60));
}

Job MakeMrJob(const MapReduceSpec& spec) {
  Job j;
  j.id = 1;
  j.type = JobType::kBatch;
  j.num_tasks = static_cast<uint32_t>(spec.requested_workers);
  j.task_resources = Resources{1.0, 2.0};
  j.mapreduce = spec;
  return j;
}

TEST(PolicyTest, NoneReturnsRequested) {
  CellState cell(100, Resources{4.0, 16.0});
  MapReducePolicyOptions opts;
  opts.policy = MapReducePolicy::kNone;
  EXPECT_EQ(ChooseWorkers(opts, MakeMrJob(SimpleSpec()), cell), 10);
}

TEST(PolicyTest, MaxParallelismUsesIdleResources) {
  CellState cell(100, Resources{4.0, 16.0});  // 400 idle cpus
  MapReducePolicyOptions opts;
  opts.policy = MapReducePolicy::kMaxParallelism;
  const int64_t w = ChooseWorkers(opts, MakeMrJob(SimpleSpec()), cell);
  EXPECT_GT(w, 10);
  // Bounded by idle capacity (400 workers of 1 cpu + the requested 10).
  EXPECT_LE(w, 410);
}

TEST(PolicyTest, MaxParallelismNeverExceedsBenefit) {
  CellState cell(5000, Resources{4.0, 16.0});  // effectively unlimited
  MapReducePolicyOptions opts;
  opts.policy = MapReducePolicy::kMaxParallelism;
  const int64_t w = ChooseWorkers(opts, MakeMrJob(SimpleSpec()), cell);
  EXPECT_LE(w, MaxBeneficialWorkers(SimpleSpec()));
  // And the chosen allocation achieves the best possible finish time.
  EXPECT_EQ(PredictCompletionTime(SimpleSpec(), w),
            PredictCompletionTime(SimpleSpec(), MaxBeneficialWorkers(SimpleSpec())));
}

TEST(PolicyTest, RelativeJobSizeCapsAtFourX) {
  CellState cell(5000, Resources{4.0, 16.0});
  MapReducePolicyOptions opts;
  opts.policy = MapReducePolicy::kRelativeJobSize;
  const int64_t w = ChooseWorkers(opts, MakeMrJob(SimpleSpec()), cell);
  EXPECT_GT(w, 10);
  EXPECT_LE(w, 40);
}

TEST(PolicyTest, GlobalCapStopsAboveThreshold) {
  CellState cell(100, Resources{4.0, 16.0});
  // Push utilization above 60%.
  for (MachineId m = 0; m < 100; ++m) {
    cell.Allocate(m, Resources{3.0, 4.0});
  }
  MapReducePolicyOptions opts;
  opts.policy = MapReducePolicy::kGlobalCap;
  EXPECT_EQ(ChooseWorkers(opts, MakeMrJob(SimpleSpec()), cell), 10);
}

TEST(PolicyTest, GlobalCapGrowsOnlyToThreshold) {
  CellState cell(100, Resources{4.0, 16.0});  // empty: utilization 0
  MapReducePolicyOptions opts;
  opts.policy = MapReducePolicy::kGlobalCap;
  const int64_t w = ChooseWorkers(opts, MakeMrJob(SimpleSpec()), cell);
  EXPECT_GT(w, 10);
  // 60% of 400 cpus = 240 one-cpu workers at most (plus the requested 10).
  EXPECT_LE(w, 250);
}

TEST(PolicyTest, NeverBelowRequested) {
  CellState cell(1, Resources{4.0, 16.0});  // nearly no idle resources
  cell.Allocate(0, Resources{4.0, 16.0});
  for (MapReducePolicy p :
       {MapReducePolicy::kMaxParallelism, MapReducePolicy::kGlobalCap,
        MapReducePolicy::kRelativeJobSize}) {
    MapReducePolicyOptions opts;
    opts.policy = p;
    EXPECT_EQ(ChooseWorkers(opts, MakeMrJob(SimpleSpec()), cell), 10)
        << MapReducePolicyName(p);
  }
}

TEST(PolicyTest, PrefersFewestWorkersAchievingBestTime) {
  // 100 map activities, no reduces: 100 workers reach 1 wave; more adds
  // nothing, so the chooser must return exactly 100.
  MapReduceSpec spec;
  spec.num_map_activities = 100;
  spec.num_reduce_activities = 0;
  spec.map_activity_duration = Duration::FromSeconds(60);
  spec.requested_workers = 10;
  CellState cell(1000, Resources{4.0, 16.0});
  MapReducePolicyOptions opts;
  opts.policy = MapReducePolicy::kMaxParallelism;
  EXPECT_EQ(ChooseWorkers(opts, MakeMrJob(spec), cell), 100);
}

SimOptions ShortRun(uint64_t seed = 1) {
  SimOptions o;
  o.horizon = Duration::FromHours(6);
  o.seed = seed;
  return o;
}

MapReducePolicyOptions Policy(MapReducePolicy p) {
  MapReducePolicyOptions o;
  o.policy = p;
  return o;
}

TEST(MapReduceSimulationTest, OutcomesRecordedWithSpeedups) {
  ClusterConfig cfg = TestCluster(64);
  cfg.mapreduce_fraction = 0.3;
  MapReduceSimulation sim(cfg, ShortRun(), SchedulerConfig{}, SchedulerConfig{},
                          Policy(MapReducePolicy::kMaxParallelism));
  sim.Run();
  const auto& outcomes = sim.mr_scheduler().outcomes();
  ASSERT_GT(outcomes.size(), 5u);
  int sped_up = 0;
  for (const MapReduceOutcome& o : outcomes) {
    EXPECT_GE(o.predicted_speedup, 0.0);
    EXPECT_GE(o.granted_workers, 0);
    if (o.predicted_speedup > 1.01) {
      ++sped_up;
    }
  }
  // Opportunistic resources speed up a solid share of MR jobs (§6.2).
  EXPECT_GT(sped_up, 0);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(MapReduceSimulationTest, BaselinePolicyGivesNoSpeedup) {
  ClusterConfig cfg = TestCluster(64);
  cfg.mapreduce_fraction = 0.3;
  MapReduceSimulation sim(cfg, ShortRun(2), SchedulerConfig{}, SchedulerConfig{},
                          Policy(MapReducePolicy::kNone));
  sim.Run();
  for (const MapReduceOutcome& o : sim.mr_scheduler().outcomes()) {
    EXPECT_LE(o.predicted_speedup, 1.0 + 1e-9);
  }
}

TEST(MapReduceSimulationTest, MaxParallelismBeatsRelativeJobSize) {
  // On a lightly loaded cluster, max-parallelism's speedup tail dominates the
  // 4x-capped policy's (Fig. 15 ordering). Identical workloads, but placement
  // dynamics diverge after the first decision, so compare upper quantiles
  // rather than demanding per-job dominance.
  ClusterConfig cfg = TestCluster(128);
  cfg.initial_utilization = 0.2;
  cfg.mapreduce_fraction = 0.3;
  auto speedup_quantile = [&](MapReducePolicy p, uint64_t seed, double q) {
    MapReduceSimulation sim(cfg, ShortRun(seed), SchedulerConfig{},
                            SchedulerConfig{}, Policy(p));
    sim.Run();
    std::vector<double> speedups;
    for (const auto& o : sim.mr_scheduler().outcomes()) {
      speedups.push_back(o.predicted_speedup);
    }
    return Percentile(speedups, q);
  };
  const double max_par =
      speedup_quantile(MapReducePolicy::kMaxParallelism, 3, 0.9);
  const double rel_size =
      speedup_quantile(MapReducePolicy::kRelativeJobSize, 3, 0.9);
  // The 4x cap binds in the tail; max-parallelism can exceed it.
  EXPECT_GE(max_par, rel_size * 0.9);
  EXPECT_LE(rel_size, 4.0 + 1e-9);
  EXPECT_GT(max_par, 1.0);
}

TEST(MapReduceSimulationTest, GangJobNeverRunsSomeOfItsWorkers) {
  // All-or-nothing commits gang-schedule a MapReduce job: a placement that
  // found room for only some workers is discarded before commit, so a job
  // starts either every worker the policy granted or none.
  ClusterConfig cfg = TestCluster(64);
  cfg.mapreduce_fraction = 0.5;
  SchedulerConfig gang;
  gang.commit_mode = CommitMode::kAllOrNothing;
  SimOptions options = ShortRun();
  options.horizon = Duration::FromHours(1);  // keeps the whole trace retained
  MapReduceSimulation sim(cfg, options, gang, SchedulerConfig{},
                          Policy(MapReducePolicy::kMaxParallelism));
  TraceRecorder trace;
  sim.SetTraceRecorder(&trace);
  sim.Run();
  ASSERT_EQ(trace.Dropped(), 0);
  std::map<uint64_t, int64_t> started;
  trace.ForEachRetained([&](const TraceEvent& e) {
    if (e.type == TraceEventType::kTaskStart) {
      ++started[e.job];
    }
  });
  int64_t gangs_started = 0;
  for (const MapReduceOutcome& o : sim.mr_scheduler().outcomes()) {
    const int64_t n = started[o.job];
    EXPECT_TRUE(n == 0 || n == o.granted_workers)
        << "job " << o.job << " started " << n << " of "
        << o.granted_workers << " workers";
    gangs_started += n > 0 ? 1 : 0;
  }
  EXPECT_GT(gangs_started, 0);
}

TEST(MapReduceSimulationTest, HonoursResourceLimit) {
  // The MapReduce scheduler runs with the batch config, so a zero resource
  // limit keeps it from placing any worker, as it does the batch scheduler.
  ClusterConfig cfg = TestCluster(64);
  cfg.mapreduce_fraction = 0.5;
  SchedulerConfig limited;
  limited.resource_limit = Resources::Zero();
  MapReduceSimulation sim(cfg, ShortRun(), limited, SchedulerConfig{},
                          Policy(MapReducePolicy::kMaxParallelism));
  sim.Run();
  ASSERT_FALSE(sim.mr_scheduler().outcomes().empty());
  EXPECT_EQ(sim.mr_scheduler().metrics().TasksAccepted(), 0);
  EXPECT_EQ(sim.batch_scheduler(0).metrics().TasksAccepted(), 0);
  EXPECT_GT(sim.service_scheduler().metrics().TasksAccepted(), 0);
}

TEST(MapReduceSimulationTest, AllOrNothingConflictTracesAtCommitGangAbort) {
  // Coarse-grained all-or-nothing commits: a MapReduce transaction conflicts
  // whenever a task end or another scheduler's commit touched one of its
  // machines since placement. Each such transaction is discarded whole and,
  // as for the Omega schedulers, traced as an at-commit gang abort on the
  // MapReduce scheduler's own track. (A placement that fell short is
  // discarded before commit, a gang abort that is not at commit.)
  ClusterConfig cfg = TestCluster(64);
  cfg.mapreduce_fraction = 0.5;
  SchedulerConfig gang;
  gang.commit_mode = CommitMode::kAllOrNothing;
  gang.conflict_mode = ConflictMode::kCoarseGrained;
  SimOptions options = ShortRun();
  options.horizon = Duration::FromHours(1);  // keeps the whole trace retained
  MapReduceSimulation sim(cfg, options, gang, SchedulerConfig{},
                          Policy(MapReducePolicy::kMaxParallelism));
  TraceRecorder trace;
  sim.SetTraceRecorder(&trace);
  sim.Run();
  ASSERT_EQ(trace.Dropped(), 0);
  const std::vector<std::string>& names = trace.track_names();
  const auto it = std::find(names.begin(), names.end(), "mapreduce");
  ASSERT_NE(it, names.end());
  const auto mr_track = static_cast<uint16_t>(it - names.begin());
  int64_t conflicted_txns = 0;
  int64_t claims_conflicted = 0;
  int64_t aborts_at_commit = 0;
  int64_t claims_discarded_at_commit = 0;
  trace.ForEachRetained([&](const TraceEvent& e) {
    if (e.track != mr_track) {
      return;
    }
    if (e.type == TraceEventType::kTxnCommit && e.arg1 > 0) {
      ++conflicted_txns;
      claims_conflicted += e.arg1;
    }
    if (e.type == TraceEventType::kGangAbort && e.arg1 == 1) {
      ++aborts_at_commit;
      claims_discarded_at_commit += e.arg0;
    }
  });
  EXPECT_GT(conflicted_txns, 0);
  EXPECT_EQ(aborts_at_commit, conflicted_txns);
  EXPECT_EQ(claims_discarded_at_commit, claims_conflicted);
}

}  // namespace
}  // namespace omega
