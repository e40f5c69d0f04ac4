// Figure 15: CDFs of potential per-job speedup for MapReduce jobs under the
// three resource policies (max-parallelism, relative-job-size, global-cap) on
// clusters A, C and D.
//
// Paper shape: 50-70% of MapReduce jobs benefit from acceleration; ~3-4x at
// the 80th percentile under max-parallelism; relative-job-size does nearly as
// well; global-cap only helps on the small, lightly utilized cluster D (the
// busier clusters sit above its 60% utilization threshold).
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/stats.h"
#include "src/mapreduce/mr_scheduler.h"

using namespace omega;

int main() {
  PrintBenchHeader("Figure 15", "MapReduce speedup CDFs per policy",
                   "50-70% of jobs speed up; ~3-4x at the 80th %ile for "
                   "max-parallelism; global-cap only helps on cluster D");
  const Duration horizon = BenchHorizon(0.5);
  const std::vector<MapReducePolicy> policies{MapReducePolicy::kMaxParallelism,
                                              MapReducePolicy::kRelativeJobSize,
                                              MapReducePolicy::kGlobalCap};
  const std::vector<const char*> clusters{"A", "C", "D"};
  struct Point {
    const char* cluster;
    MapReducePolicy policy;
  };
  std::vector<Point> points;
  for (const char* c : clusters) {
    for (MapReducePolicy p : policies) {
      points.push_back({c, p});
    }
  }
  SweepRunner runner("fig15", 15000);
  runner.report().AddMetric("sim_days", horizon.ToDays());
  const std::vector<Cdf> speedups =
      runner.Run(points.size(), [&](const TrialContext& ctx) {
        const Point& p = points[ctx.index];
        SimOptions opts;
        opts.horizon = horizon;
        // Same workload for every policy on a cluster.
        opts.seed = ctx.base_seed + ctx.index / policies.size();
        MapReducePolicyOptions policy;
        policy.policy = p.policy;
        MapReduceSimulation sim(ClusterByName(p.cluster), opts,
                                DefaultSchedulerConfig("batch"),
                                DefaultSchedulerConfig("service"), policy);
        sim.Run();
        Cdf cdf;
        for (const MapReduceOutcome& o : sim.mr_scheduler().outcomes()) {
          cdf.Add(o.predicted_speedup);
        }
        return cdf;
      });
  for (const Point& p : points) {
    runner.report().trial_labels.push_back(std::string(p.cluster) + "-" +
                                           MapReducePolicyName(p.policy));
  }

  for (const char* c : clusters) {
    std::cout << "\n--- cluster " << c << " ---\n";
    TablePrinter table({"policy", "jobs", "frac sped up (>1.05x)",
                        "median speedup", "80th %ile", "95th %ile"});
    for (size_t i = 0; i < points.size(); ++i) {
      if (std::string(points[i].cluster) != c) {
        continue;
      }
      const Cdf& cdf = speedups[i];
      const double frac_sped =
          cdf.empty() ? 0.0 : 1.0 - cdf.FractionAtOrBelow(1.05);
      table.AddRow({MapReducePolicyName(points[i].policy),
                    std::to_string(cdf.count()), FormatValue(frac_sped),
                    FormatValue(cdf.Quantile(0.5)),
                    FormatValue(cdf.Quantile(0.8)),
                    FormatValue(cdf.Quantile(0.95))});
    }
    table.Print(std::cout);
  }
  double jobs = 0.0;
  for (const Cdf& cdf : speedups) {
    jobs += static_cast<double>(cdf.count());
  }
  runner.report().AddMetric("mapreduce_jobs_total", jobs);
  FinishSweep(runner);
  return 0;
}
