// Figure 11: high-fidelity simulator, cluster C trace: service scheduler
// busyness as a function of t_job(service) and t_task(service).
//
// Paper shape: busyness remains low across almost the entire range of both
// parameters — the Omega architecture scales to long service decision times.
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/parallel_for.h"
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
  std::vector<double> busy(points.size());
  ShardSlots<double> busy_slots(busy);
  ParallelFor(
      points.size(),
      [&](size_t i) {
        SimOptions opts;
        opts.horizon = horizon;
        opts.seed = 11000 + i;
        SchedulerConfig service = DefaultSchedulerConfig("service");
        service.service_times.t_job = Duration::FromSeconds(points[i].t_job);
        service.service_times.t_task = Duration::FromSeconds(points[i].t_task);
        auto sim = MakeHifiSimulation(ClusterC(), opts,
                                      DefaultSchedulerConfig("batch"), service);
        auto trace = GenerateHifiTrace(ClusterC(), horizon, 1100 + i);
        sim->RunTrace(std::move(trace));
        busy_slots[i] =
            sim->service_scheduler().metrics().Busyness(sim->EndTime()).median;
      },
      BenchThreads());

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
  return 0;
}
