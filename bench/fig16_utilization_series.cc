// Figure 16: time series of normalized cluster utilization on cluster C
// without the specialized MapReduce scheduler (top) and in max-parallelism
// mode (bottom).
//
// Paper shape: max-parallelism raises utilization and increases its
// variability (jobs grab idle resources, finish sooner, and release big
// chunks at once).
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/parallel_for.h"
#include "src/common/stats.h"
#include "src/mapreduce/mr_scheduler.h"

using namespace omega;

int main() {
  PrintBenchHeader("Figure 16", "cluster C utilization: normal vs max-parallel",
                   "max-parallelism raises utilization and its variability");
  const Duration horizon = BenchHorizon(1.0);
  struct Run {
    MapReducePolicy policy;
    std::vector<UtilizationSample> series;
  };
  std::vector<Run> runs{{MapReducePolicy::kNone, {}},
                        {MapReducePolicy::kMaxParallelism, {}}};
  ShardSlots<Run> run_slots(runs);
  ParallelFor(
      runs.size(),
      [&](size_t i) {
        SimOptions opts;
        opts.horizon = horizon;
        opts.seed = 16001;  // identical workload for both policies
        opts.utilization_sample_interval = Duration::FromMinutes(15);
        MapReducePolicyOptions policy;
        policy.policy = runs[i].policy;
        MapReduceSimulation sim(ClusterC(), opts, DefaultSchedulerConfig("batch"),
                                DefaultSchedulerConfig("service"), policy);
        sim.Run();
        run_slots[i].series = sim.utilization_series();
      },
      BenchThreads());

  TablePrinter table({"hour", "normal cpu", "normal mem", "max-par cpu",
                      "max-par mem"});
  const size_t n = std::min(runs[0].series.size(), runs[1].series.size());
  for (size_t i = 0; i < n; i += 2) {  // every 30 minutes
    table.AddRow({FormatValue(runs[0].series[i].time_hours),
                  FormatValue(runs[0].series[i].cpu),
                  FormatValue(runs[0].series[i].mem),
                  FormatValue(runs[1].series[i].cpu),
                  FormatValue(runs[1].series[i].mem)});
  }
  table.Print(std::cout);

  for (const Run& r : runs) {
    RunningStats cpu;
    for (const UtilizationSample& s : r.series) {
      cpu.Add(s.cpu);
    }
    std::cout << (r.policy == MapReducePolicy::kNone ? "normal" : "max-parallel")
              << ": mean cpu util " << FormatValue(cpu.mean()) << ", stddev "
              << FormatValue(cpu.stddev()) << "\n";
  }
  return 0;
}
