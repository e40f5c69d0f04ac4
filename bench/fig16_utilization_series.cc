// Figure 16: time series of normalized cluster utilization on cluster C
// without the specialized MapReduce scheduler (top) and in max-parallelism
// mode (bottom).
//
// Paper shape: max-parallelism raises utilization and increases its
// variability (jobs grab idle resources, finish sooner, and release big
// chunks at once).
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/stats.h"
#include "src/mapreduce/mr_scheduler.h"

using namespace omega;

int main() {
  PrintBenchHeader("Figure 16", "cluster C utilization: normal vs max-parallel",
                   "max-parallelism raises utilization and its variability");
  const Duration horizon = BenchHorizon(1.0);
  const std::vector<MapReducePolicy> policies{MapReducePolicy::kNone,
                                              MapReducePolicy::kMaxParallelism};
  SweepRunner runner("fig16", 16001);
  runner.report().AddMetric("sim_days", horizon.ToDays());
  const std::vector<std::vector<UtilizationSample>> series =
      runner.Run(policies.size(), [&](const TrialContext& ctx) {
        SimOptions opts;
        opts.horizon = horizon;
        opts.seed = ctx.base_seed;  // identical workload for both policies
        opts.utilization_sample_interval = Duration::FromMinutes(15);
        MapReducePolicyOptions policy;
        policy.policy = policies[ctx.index];
        MapReduceSimulation sim(ClusterC(), opts, DefaultSchedulerConfig("batch"),
                                DefaultSchedulerConfig("service"), policy);
        sim.Run();
        return sim.utilization_series();
      });
  for (MapReducePolicy p : policies) {
    runner.report().trial_labels.emplace_back(MapReducePolicyName(p));
  }

  TablePrinter table({"hour", "normal cpu", "normal mem", "max-par cpu",
                      "max-par mem"});
  const size_t n = std::min(series[0].size(), series[1].size());
  for (size_t i = 0; i < n; i += 2) {  // every 30 minutes
    table.AddRow({FormatValue(series[0][i].time_hours),
                  FormatValue(series[0][i].cpu),
                  FormatValue(series[0][i].mem),
                  FormatValue(series[1][i].cpu),
                  FormatValue(series[1][i].mem)});
  }
  table.Print(std::cout);

  for (size_t p = 0; p < policies.size(); ++p) {
    RunningStats cpu;
    for (const UtilizationSample& s : series[p]) {
      cpu.Add(s.cpu);
    }
    const bool normal = policies[p] == MapReducePolicy::kNone;
    std::cout << (normal ? "normal" : "max-parallel") << ": mean cpu util "
              << FormatValue(cpu.mean()) << ", stddev "
              << FormatValue(cpu.stddev()) << "\n";
    runner.report().AddMetric(
        normal ? "normal_cpu_util_mean" : "max_parallel_cpu_util_mean",
        cpu.mean());
  }
  FinishSweep(runner);
  return 0;
}
