// Figure 7: two-level scheduling (Mesos): job wait time, scheduler busyness
// and abandoned jobs as a function of t_job(service), clusters A, B, C.
// The paper simulates one day for Mesos (the failed scheduling attempts make
// longer runs impractical) — so does this bench.
//
// Paper shape: batch framework busyness is much higher than the monolithic
// multi-path equivalent (offer locking starves it into repeated futile
// attempts); at long service decision times jobs hit the 1,000-attempt limit
// and are abandoned.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/mesos/mesos_simulation.h"

using namespace omega;

int main() {
  PrintBenchHeader("Figure 7", "two-level (Mesos): wait, busyness, abandoned",
                   "batch framework busyness far above multi-path monolithic; "
                   "jobs abandoned at long t_job(service)");
  const Duration horizon = BenchHorizon(1.0);
  struct Point {
    const char* cluster;
    double t_job;
  };
  std::vector<Point> points;
  for (const char* cluster : {"A", "B", "C"}) {
    for (double t : TjobSweep()) {
      points.push_back({cluster, t});
    }
  }
  struct Row {
    Point p;
    double batch_wait, service_wait, batch_busy, service_busy;
    int64_t abandoned;
  };
  SweepRunner runner("fig7", 7000);
  runner.report().AddMetric("sim_days", horizon.ToDays());
  const std::vector<Row> rows =
      runner.Run(points.size(), [&](const TrialContext& ctx) {
        const Point& p = points[ctx.index];
        SimOptions opts;
        opts.horizon = horizon;
        opts.seed = ctx.base_seed + ctx.index;
        MesosSimulation sim(ClusterByName(p.cluster), opts,
                            DefaultSchedulerConfig("batch"),
                            ServiceConfigWithTjob(p.t_job));
        sim.Run();
        const SimTime end = sim.EndTime();
        const auto& bm = sim.batch_framework().metrics();
        const auto& sm = sim.service_framework().metrics();
        return Row{p,
                   bm.MeanWait(JobType::kBatch),
                   sm.MeanWait(JobType::kService),
                   bm.Busyness(end).median,
                   sm.Busyness(end).median,
                   sim.TotalJobsAbandoned()};
      });
  for (const Point& p : points) {
    char label[64];
    std::snprintf(label, sizeof(label), "%s-tjob%g", p.cluster, p.t_job);
    runner.report().trial_labels.emplace_back(label);
  }

  TablePrinter table({"cluster", "t_job(service) [s]", "batch wait [s]",
                      "service wait [s]", "batch busy", "service busy",
                      "abandoned jobs"});
  for (const Row& r : rows) {
    table.AddRow({r.p.cluster, FormatValue(r.p.t_job), FormatValue(r.batch_wait),
                  FormatValue(r.service_wait), FormatValue(r.batch_busy),
                  FormatValue(r.service_busy), std::to_string(r.abandoned)});
  }
  table.Print(std::cout);
  RunningStats batch_busy;
  int64_t abandoned_total = 0;
  for (const Row& r : rows) {
    batch_busy.Add(r.batch_busy);
    abandoned_total += r.abandoned;
  }
  runner.report().AddMetric("batch_busy_mean", batch_busy.mean());
  runner.report().AddMetric("abandoned_total",
                            static_cast<double>(abandoned_total));
  FinishSweep(runner);
  return 0;
}
