// Tests for the deterministic parallel sweep engine: substream derivation,
// trial-index ordering, thread-count invariance of a fig5-style sweep, merge
// helpers, and the BENCH_<figure>.json output.
#include "src/exp/sweep.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench/fig56_sweep.h"
#include "src/common/random.h"
#include "tests/bitwise_eq.h"

namespace omega {
namespace {

TEST(SubstreamSeedTest, PureAndInjectiveOverSmallIndexRange) {
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 4096; ++i) {
    const uint64_t s = SubstreamSeed(7, i);
    EXPECT_EQ(s, SubstreamSeed(7, i)) << "must be pure";
    seeds.insert(s);
  }
  EXPECT_EQ(seeds.size(), 4096u) << "substreams must not collide";
}

TEST(SubstreamSeedTest, DependsOnBaseSeed) {
  EXPECT_NE(SubstreamSeed(1, 0), SubstreamSeed(2, 0));
  EXPECT_NE(SubstreamSeed(1, 5), SubstreamSeed(2, 5));
}

TEST(SubstreamSeedTest, StreamsAreStatisticallyIndependent) {
  // Adjacent substreams must not produce correlated output: check that the
  // first draws of 1000 adjacent substreams look uniform in [0,1).
  RunningStats first_draws;
  for (uint64_t i = 0; i < 1000; ++i) {
    Rng rng(SubstreamSeed(123, i));
    first_draws.Add(rng.NextDouble());
  }
  EXPECT_NEAR(first_draws.mean(), 0.5, 0.05);
  EXPECT_NEAR(first_draws.stddev(), 0.2887, 0.03);
}

TEST(SweepRunnerTest, ResultsComeBackInTrialIndexOrder) {
  SweepRunner runner("test_order", 1, 4);
  const auto results = runner.Run(
      257, [](const TrialContext& ctx) { return ctx.index * 10; });
  ASSERT_EQ(results.size(), 257u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * 10);
  }
}

TEST(SweepRunnerTest, ContextSeedsMatchSubstreamDerivation) {
  SweepRunner runner("test_seeds", 77, 2);
  const auto seeds = runner.Run(
      16, [](const TrialContext& ctx) {
        EXPECT_EQ(ctx.base_seed, 77u);
        return ctx.seed;
      });
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], SubstreamSeed(77, i));
  }
}

TEST(SweepRunnerTest, RecordsPerTrialAndTotalTiming) {
  SweepRunner runner("test_timing", 1, 2);
  runner.Run(8, [](const TrialContext& ctx) {
    // A sliver of real work so per-trial clocks tick.
    Rng rng(ctx.seed);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
      sum += rng.NextDouble();
    }
    return sum;
  });
  const SweepReport& rep = runner.report();
  EXPECT_EQ(rep.trials, 8u);
  EXPECT_EQ(rep.threads, 2u);
  ASSERT_EQ(rep.trial_wall_seconds.size(), 8u);
  EXPECT_GT(rep.wall_seconds, 0.0);
  for (double s : rep.trial_wall_seconds) {
    EXPECT_GE(s, 0.0);
  }
  EXPECT_GT(rep.TrialSecondsTotal(), 0.0);
}

TEST(SweepRunnerTest, TrialExceptionSurfacesOnCaller) {
  SweepRunner runner("test_throw", 1, 4);
  EXPECT_THROW(runner.Run(64,
                          [](const TrialContext& ctx) -> int {
                            if (ctx.index == 13) {
                              throw std::runtime_error("trial 13");
                            }
                            return 0;
                          }),
               std::runtime_error);
}

TEST(MergeHelpersTest, FoldInTrialIndexOrder) {
  std::vector<RunningStats> stats(3);
  std::vector<Cdf> cdfs(3);
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 5; ++i) {
      stats[t].Add(t * 5 + i);
      cdfs[t].Add(t * 5 + i);
    }
  }
  const RunningStats merged = MergeTrialStats(stats);
  EXPECT_EQ(merged.count(), 15);
  EXPECT_DOUBLE_EQ(merged.mean(), 7.0);
  EXPECT_DOUBLE_EQ(merged.min(), 0.0);
  EXPECT_DOUBLE_EQ(merged.max(), 14.0);
  const Cdf cdf = MergeTrialCdfs(cdfs);
  EXPECT_EQ(cdf.count(), 15u);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 7.0);
}

// The acceptance bar for the sweep engine: a fig5-style sweep must produce
// bit-identical results (and bit-identical merged statistics) no matter how
// many worker threads shard the grid.
TEST(SweepDeterminismTest, Fig5SweepIdenticalAcrossThreadCounts) {
  const Duration horizon = Duration::FromDays(0.004);
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  // Always include an oversubscribed 4-thread leg: containers can report a
  // hardware concurrency of 1, which would otherwise duplicate the serial leg.
  const std::set<size_t> thread_counts{1, 2, 4, hw};
  std::vector<std::vector<SweepResult>> runs;
  std::vector<double> merged_means;
  for (size_t threads : thread_counts) {
    SweepRunner runner("test_fig5_determinism", kFig56BaseSeed, threads);
    runs.push_back(RunFig56Sweep(horizon, runner, /*tjob_points=*/3));
    RunningStats merged;
    for (const SweepResult& r : runs.back()) {
      merged.Add(r.batch_wait);
      merged.Add(r.service_wait);
    }
    merged_means.push_back(merged.mean());
  }
  ASSERT_EQ(runs.size(), thread_counts.size());
  for (size_t k = 1; k < runs.size(); ++k) {
    ASSERT_EQ(runs[k].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      const SweepResult& a = runs[0][i];
      const SweepResult& b = runs[k][i];
      EXPECT_EQ(a.arch, b.arch) << "trial " << i;
      EXPECT_EQ(a.cluster, b.cluster) << "trial " << i;
      EXPECT_TRUE(SameBits(a.t_job_secs, b.t_job_secs)) << "trial " << i;
      EXPECT_TRUE(SameBits(a.batch_wait, b.batch_wait)) << "trial " << i;
      EXPECT_TRUE(SameBits(a.service_wait, b.service_wait)) << "trial " << i;
      EXPECT_TRUE(SameBits(a.batch_busy, b.batch_busy)) << "trial " << i;
      EXPECT_TRUE(SameBits(a.batch_busy_mad, b.batch_busy_mad)) << "trial " << i;
      EXPECT_TRUE(SameBits(a.service_busy, b.service_busy)) << "trial " << i;
      EXPECT_TRUE(SameBits(a.service_busy_mad, b.service_busy_mad))
          << "trial " << i;
      EXPECT_EQ(a.abandoned, b.abandoned) << "trial " << i;
    }
    EXPECT_TRUE(SameBits(merged_means[k], merged_means[0]));
  }
}

// Bit-identical regression: these golden values were first captured from the
// pre-overhaul simulator (priority_queue + lazy-tombstone event queue,
// unpruned placement scan) at commit f3f58e8, Release build, by running
// RunFig56Sweep(Duration::FromDays(0.004), runner, 3) serially and printing
// every field at %.17g. The indexed event slab and the block-summary
// placement pruning (since deleted) did not move ANY of them: the event
// queue pops the same (time, insertion-order) sequence, and the pruned scan
// only skipped machines that could never be chosen. They were re-captured the same way once, when
// the initial fill switched to the exact length-biased duration sampler
// (DESIGN.md §7), which draws a different random stream.
TEST(SweepDeterminismTest, Fig5SweepMatchesSeedGoldens) {
  struct Golden {
    const char* arch;
    const char* cluster;
    double t_job_secs;
    double batch_wait;
    double service_wait;
    double batch_busy;
    double batch_busy_mad;
    double service_busy;
    double service_busy_mad;
    long long abandoned;
  };
  // No service job waited in these trials; the empty-sample summary is NaN
  // (stats.h). The underlying wait samples are unchanged from the seed
  // capture — only the empty-summary sentinel moved from 0 to NaN.
  constexpr double kNoData = std::numeric_limits<double>::quiet_NaN();
  static constexpr Golden kGolden[] = {
      {"mono-single", "A", 0.01, 0.016284924836601305, 0.0026606666666666666, 0.11044560185185209, 0, 0.11044560185185209, 0, 0},
      {"mono-single", "A", 1, 113.10587421671828, 102.14473400000001, 1, 0, 1, 0, 0},
      {"mono-single", "A", 100, 149.239589, kNoData, 1, 0, 1, 0, 0},
      {"mono-single", "B", 0.01, 0.026923974504249288, 0.15225315384615384, 0.067303240740740747, 0, 0.067303240740740747, 0, 0},
      {"mono-single", "B", 1, 36.942391328220872, 38.858711800000002, 0.99982638888888564, 0, 0.99982638888888564, 0, 0},
      {"mono-single", "B", 100, 146.53685200000001, kNoData, 1, 0, 1, 0, 0},
      {"mono-single", "C", 0.01, 0.030225471311475415, 0, 0.046079282407407454, 0, 0.046079282407407454, 0, 0},
      {"mono-single", "C", 1, 1.6448179723320164, 1.6931630714285713, 0.80013020833333126, 0, 0.80013020833333126, 0, 0},
      {"mono-single", "C", 100, 146.99030625, kNoData, 1, 0, 1, 0, 0},
      {"mono-multi", "A", 0.01, 0.15447557095709577, 0.28334199999999998, 0.38875868055555651, 0, 0.38875868055555651, 0, 0},
      {"mono-multi", "A", 1, 0.16070759641728119, 0.14250599999999999, 0.4153501157407416, 0, 0.4153501157407416, 0, 0},
      {"mono-multi", "A", 100, 28.390137605398458, 0, 0.92719907407407587, 0, 0.92719907407407587, 0, 0},
      {"mono-multi", "B", 0.01, 0.016718895161290319, 0, 0.14696180555555502, 0, 0.14696180555555502, 0, 0},
      {"mono-multi", "B", 1, 0.055199097035040445, 0.14742466666666665, 0.1901186342592586, 0, 0.1901186342592586, 0, 0},
      {"mono-multi", "B", 100, 82.19409513586956, 75.859971250000001, 1, 0, 1, 0, 0},
      {"mono-multi", "C", 0.01, 0.023003595918367346, 0, 0.10397858796296286, 0, 0.10397858796296286, 0, 0},
      {"mono-multi", "C", 1, 0.19349397446808506, 0.029601444444444444, 0.14150752314814782, 0, 0.14150752314814782, 0, 0},
      {"mono-multi", "C", 100, 51.627355009523811, 65.558406333333338, 0.91166087962962972, 0, 0.91166087962962972, 0, 0},
      {"omega", "A", 0.01, 0.10014606487695746, 0, 0.37228009259259298, 0, 0.0010271990740740743, 0, 0},
      {"omega", "A", 1, 0.12987495572354224, 0, 0.38399884259259243, 0, 0.0087384259259259238, 0, 0},
      {"omega", "A", 100, 0.056659346241457881, 64.371239000000003, 0.35095486111111129, 0, 0.86812789351851838, 0, 0},
      {"omega", "B", 0.01, 0.13783818062827222, 0, 0.16153067129629584, 0, 0.0011284722222222225, 0, 0},
      {"omega", "B", 1, 0.02196441443850267, 0.080352599999999996, 0.15125868055555519, 0, 0.029340277777777771, 0, 0},
      {"omega", "B", 100, 0.023115322314049582, 95.70052475, 0.14442997685185144, 0, 1, 0, 0},
      {"omega", "C", 0.01, 0.12904900400000002, 0, 0.1391348379629628, 0, 0.0026620370370370374, 0, 0},
      {"omega", "C", 1, 0.0092792129277566547, 0.079509999999999997, 0.099710648148148062, 0, 0.029282407407407403, 0, 0},
      {"omega", "C", 100, 0.014065259842519686, 124.818433, 0.099522569444444361, 0, 1, 0, 0},
  };
  SweepRunner runner("test_fig5_goldens", kFig56BaseSeed, 1);
  const auto results =
      RunFig56Sweep(Duration::FromDays(0.004), runner, /*tjob_points=*/3);
  ASSERT_EQ(results.size(), std::size(kGolden));
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    const Golden& g = kGolden[i];
    EXPECT_EQ(r.arch, g.arch) << "trial " << i;
    EXPECT_EQ(r.cluster, g.cluster) << "trial " << i;
    EXPECT_TRUE(SameBits(r.t_job_secs, g.t_job_secs)) << "trial " << i;
    EXPECT_TRUE(SameBits(r.batch_wait, g.batch_wait)) << "trial " << i;
    EXPECT_TRUE(SameBits(r.service_wait, g.service_wait)) << "trial " << i;
    EXPECT_TRUE(SameBits(r.batch_busy, g.batch_busy)) << "trial " << i;
    EXPECT_TRUE(SameBits(r.batch_busy_mad, g.batch_busy_mad)) << "trial " << i;
    EXPECT_TRUE(SameBits(r.service_busy, g.service_busy)) << "trial " << i;
    EXPECT_TRUE(SameBits(r.service_busy_mad, g.service_busy_mad))
        << "trial " << i;
    EXPECT_EQ(r.abandoned, g.abandoned) << "trial " << i;
  }
}

TEST(SweepReportTest, JsonContainsAllSections) {
  SweepRunner runner("test_json", 5, 2);
  runner.Run(4, [](const TrialContext& ctx) { return ctx.index; });
  runner.report().AddMetric("answer", 42.0);
  runner.report().trial_labels = {"a", "b", "c", "d"};
  const std::string json = runner.report().ToJson();
  EXPECT_NE(json.find("\"figure\": \"test_json\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"git_sha\": \""), std::string::npos) << json;
  EXPECT_NE(json.find("\"build_type\": \""), std::string::npos) << json;
  EXPECT_NE(json.find("\"base_seed\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"threads\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trials\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_seconds\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trial_seconds_total\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"speedup_vs_serial\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trial_wall_seconds\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"trial_labels\": [\"a\", \"b\", \"c\", \"d\"]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"answer\": 42"), std::string::npos) << json;
}

TEST(SweepReportDeathTest, LabelCountOtherThanTrialsAborts) {
  SweepRunner runner("test_labels", 1, 1);
  runner.Run(3, [](const TrialContext& ctx) { return ctx.index; });
  runner.report().trial_labels = {"only", "two"};
  EXPECT_DEATH(runner.report().ToJson(), "2 trial labels for 3 trials");
  runner.report().trial_labels.assign(4, "extra");
  EXPECT_DEATH(runner.report().ToJson(), "4 trial labels for 3 trials");
}

TEST(SweepReportTest, WriteJsonHonorsOutputDirEnv) {
  const std::string dir = ::testing::TempDir();
  setenv("OMEGA_BENCH_JSON_DIR", dir.c_str(), 1);
  SweepRunner runner("test_write", 1, 1);
  runner.Run(2, [](const TrialContext& ctx) { return ctx.index; });
  const std::string path = runner.WriteJson();
  unsetenv("OMEGA_BENCH_JSON_DIR");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.rfind(dir, 0), 0u) << path;
  EXPECT_NE(path.find("BENCH_test_write.json"), std::string::npos) << path;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), runner.report().ToJson());
}

TEST(SweepRunnerTest, EnvGitShaOverridesCompiledProvenance) {
  setenv("OMEGA_GIT_SHA", "deadbeef1234", 1);
  SweepRunner runner("test_env_sha", 1, 1);
  unsetenv("OMEGA_GIT_SHA");
  EXPECT_EQ(runner.report().git_sha, "deadbeef1234");
  EXPECT_FALSE(runner.report().build_type.empty());
  const std::string json = runner.report().ToJson();
  EXPECT_NE(json.find("\"git_sha\": \"deadbeef1234\""), std::string::npos)
      << json;
}

TEST(ProvenanceTest, SanitizeAcceptsPlainTokens) {
  EXPECT_EQ(SanitizeProvenance("deadbeef1234"), "deadbeef1234");
  EXPECT_EQ(SanitizeProvenance("Release"), "Release");
  EXPECT_EQ(SanitizeProvenance("v2.1-rc3+local"), "v2.1-rc3+local");
}

TEST(ProvenanceTest, SanitizeMapsDegenerateValuesToUnknown) {
  // `git rev-parse` outside a work tree prints an error on stderr and can
  // leave the captured variable empty — or, with output merging, a full
  // diagnostic sentence. Neither may leak into BENCH provenance.
  EXPECT_EQ(SanitizeProvenance(""), "unknown");
  EXPECT_EQ(SanitizeProvenance("fatal: not a git repository"), "unknown");
  EXPECT_EQ(SanitizeProvenance("deadbeef\n"), "unknown");
  EXPECT_EQ(SanitizeProvenance(" "), "unknown");
  EXPECT_EQ(SanitizeProvenance("abc\tdef"), "unknown");
}

TEST(SweepRunnerTest, EnvSeedOverridesBaseSeed) {
  setenv("OMEGA_BENCH_SEED", "31337", 1);
  SweepRunner runner("test_env_seed", 1, 1);
  unsetenv("OMEGA_BENCH_SEED");
  EXPECT_EQ(runner.report().base_seed, 31337u);
  const auto seeds =
      runner.Run(2, [](const TrialContext& ctx) { return ctx.seed; });
  EXPECT_EQ(seeds[0], SubstreamSeed(31337, 0));
  EXPECT_EQ(seeds[1], SubstreamSeed(31337, 1));
}

}  // namespace
}  // namespace omega
