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
#include "src/common/parallel_for.h"
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
  struct Run {
    const char* cluster;
    MapReducePolicy policy;
    Cdf speedups;
  };
  std::vector<Run> runs;
  for (const char* c : clusters) {
    for (MapReducePolicy p : policies) {
      runs.push_back(Run{c, p, {}});
    }
  }
  ShardSlots<Run> run_slots(runs);
  ParallelFor(
      runs.size(),
      [&](size_t i) {
        SimOptions opts;
        opts.horizon = horizon;
        opts.seed = 15000 + i / policies.size();  // same workload per cluster
        MapReducePolicyOptions policy;
        policy.policy = runs[i].policy;
        MapReduceSimulation sim(ClusterByName(runs[i].cluster), opts,
                                DefaultSchedulerConfig("batch"),
                                DefaultSchedulerConfig("service"), policy);
        sim.Run();
        for (const MapReduceOutcome& o : sim.mr_scheduler().outcomes()) {
          run_slots[i].speedups.Add(o.predicted_speedup);
        }
      },
      BenchThreads());

  for (const char* c : clusters) {
    std::cout << "\n--- cluster " << c << " ---\n";
    TablePrinter table({"policy", "jobs", "frac sped up (>1.05x)",
                        "median speedup", "80th %ile", "95th %ile"});
    for (const Run& r : runs) {
      if (std::string(r.cluster) != c) {
        continue;
      }
      const double frac_sped =
          r.speedups.empty() ? 0.0 : 1.0 - r.speedups.FractionAtOrBelow(1.05);
      table.AddRow({MapReducePolicyName(r.policy),
                    std::to_string(r.speedups.count()), FormatValue(frac_sped),
                    FormatValue(r.speedups.Quantile(0.5)),
                    FormatValue(r.speedups.Quantile(0.8)),
                    FormatValue(r.speedups.Quantile(0.95))});
    }
    table.Print(std::cout);
  }
  return 0;
}
