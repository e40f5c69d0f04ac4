// Figure 7: two-level scheduling (Mesos): job wait time, scheduler busyness
// and abandoned jobs as a function of t_job(service), clusters A, B, C.
// The paper simulates one day for Mesos (the failed scheduling attempts make
// longer runs impractical) — so does this bench.
//
// Paper shape: batch framework busyness is much higher than the monolithic
// multi-path equivalent (offer locking starves it into repeated futile
// attempts); at long service decision times jobs hit the 1,000-attempt limit
// and are abandoned.
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/parallel_for.h"
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
  std::vector<Row> rows(points.size());
  ShardSlots<Row> row_slots(rows);
  ParallelFor(
      points.size(),
      [&](size_t i) {
        SimOptions opts;
        opts.horizon = horizon;
        opts.seed = 7000 + i;
        const ClusterConfig cfg = ClusterByName(points[i].cluster);
        MesosSimulation sim(cfg, opts, DefaultSchedulerConfig("batch"),
                            ServiceConfigWithTjob(points[i].t_job));
        sim.Run();
        const SimTime end = sim.EndTime();
        row_slots[i] = Row{points[i],
                      sim.batch_framework().metrics().MeanWait(JobType::kBatch),
                      sim.service_framework().metrics().MeanWait(JobType::kService),
                      sim.batch_framework().metrics().Busyness(end).median,
                      sim.service_framework().metrics().Busyness(end).median,
                      sim.TotalJobsAbandoned()};
      },
      BenchThreads());

  TablePrinter table({"cluster", "t_job(service) [s]", "batch wait [s]",
                      "service wait [s]", "batch busy", "service busy",
                      "abandoned jobs"});
  for (const Row& r : rows) {
    table.AddRow({r.p.cluster, FormatValue(r.p.t_job), FormatValue(r.batch_wait),
                  FormatValue(r.service_wait), FormatValue(r.batch_busy),
                  FormatValue(r.service_busy), std::to_string(r.abandoned)});
  }
  table.Print(std::cout);
  return 0;
}
