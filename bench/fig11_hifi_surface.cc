// Figure 11: high-fidelity simulator, cluster C trace: service scheduler
// busyness as a function of t_job(service) and t_task(service).
//
// Paper shape: busyness remains low across almost the entire range of both
// parameters — the Omega architecture scales to long service decision times.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/hifi/hifi_simulation.h"

using namespace omega;

int main() {
  PrintBenchHeader("Figure 11",
                   "hifi: service busyness over (t_job, t_task), cluster C",
                   "busyness stays low across almost the whole plane");
  const Duration horizon = BenchHorizon(0.25);
  const std::vector<double> t_jobs{0.1, 1.0, 10.0, 100.0};
  const std::vector<double> t_tasks{0.001, 0.01, 0.1, 1.0};
  struct Point {
    double t_job, t_task;
  };
  std::vector<Point> points;
  for (double tj : t_jobs) {
    for (double tt : t_tasks) {
      points.push_back({tj, tt});
    }
  }
  SweepRunner runner("fig11", 11000);
  runner.report().AddMetric("sim_days", horizon.ToDays());
  const std::vector<double> busy =
      runner.Run(points.size(), [&](const TrialContext& ctx) {
        const size_t i = ctx.index;
        SimOptions opts;
        opts.horizon = horizon;
        opts.seed = ctx.base_seed + i;
        SchedulerConfig service = DefaultSchedulerConfig("service");
        service.service_times.t_job = Duration::FromSeconds(points[i].t_job);
        service.service_times.t_task = Duration::FromSeconds(points[i].t_task);
        auto sim = MakeHifiSimulation(ClusterC(), opts,
                                      DefaultSchedulerConfig("batch"), service);
        auto trace =
            GenerateHifiTrace(ClusterC(), horizon, ctx.base_seed / 10 + i);
        sim->RunTrace(std::move(trace));
        const SimTime end = sim->EndTime();
        return sim->service_scheduler().metrics().Busyness(end).median;
      });
  for (const Point& p : points) {
    char label[64];
    std::snprintf(label, sizeof(label), "tjob%g-ttask%g", p.t_job, p.t_task);
    runner.report().trial_labels.emplace_back(label);
  }

  TablePrinter table({"t_job \\ t_task", "0.001", "0.01", "0.1", "1.0"});
  size_t idx = 0;
  for (double tj : t_jobs) {
    std::vector<std::string> cells{FormatValue(tj)};
    for (size_t c = 0; c < t_tasks.size(); ++c) {
      cells.push_back(FormatValue(busy[idx++]));
    }
    table.AddRow(cells);
  }
  table.Print(std::cout);
  double busy_max = 0.0;
  for (double b : busy) {
    busy_max = std::max(busy_max, b);
  }
  runner.report().AddMetric("service_busy_max", busy_max);
  FinishSweep(runner);
  return 0;
}
