// Figures 5 and 6 from one sweep of the RunFig56Sweep grid.
//
// Figure 5: mean job wait time as a function of t_job for the single-path
// monolithic scheduler, and of t_job(service) for the multi-path monolithic
// and shared-state schedulers. The 30 s SLO is the reference line.
//
// Paper shape: single-path wait time rises for BOTH job types together and
// blows past the SLO as the scheduler saturates; multi-path and Omega keep
// batch wait times low even at long service decision times; Omega's batch and
// service lines are independent (no head-of-line blocking).
//
// Figure 6: scheduler busyness (median daily value, +/- MAD) over the same
// grid.
//
// Paper shape: single-path busyness scales linearly with t_job until it
// saturates at 1.0; multi-path and Omega stay low for batch; in Omega the
// service scheduler's busyness grows with t_job(service) but the batch
// scheduler is unaffected.
#include <iostream>
#include <string>
#include <vector>

#include "bench/fig56_sweep.h"

using namespace omega;

namespace {

// Prints one table per architecture with `row(r)` for each of its points.
template <typename RowFn>
void PrintArchTables(const std::vector<SweepResult>& results,
                     const std::vector<std::string>& columns, RowFn row) {
  for (const char* arch : {"mono-single", "mono-multi", "omega"}) {
    std::cout << "\n--- " << arch << " ---\n";
    TablePrinter table(columns);
    for (const SweepResult& r : results) {
      if (r.arch == arch) {
        table.AddRow(row(r));
      }
    }
    table.Print(std::cout);
  }
}

}  // namespace

int main() {
  PrintBenchHeader("Figure 5", "job wait time vs t_job(service)",
                   "single-path saturates for all jobs; multi-path/Omega keep "
                   "batch wait low; 30 s SLO is the bar");
  SweepRunner runner("fig5", kFig56BaseSeed);
  const auto results = RunFig56Sweep(BenchHorizon(1.0), runner);
  PrintArchTables(results,
                  {"cluster", "t_job(service) [s]", "batch wait [s]",
                   "service wait [s]", "meets 30s SLO"},
                  [](const SweepResult& r) -> std::vector<std::string> {
                    const bool slo =
                        r.batch_wait <= 30.0 && r.service_wait <= 30.0;
                    return {r.cluster, FormatValue(r.t_job_secs),
                            FormatValue(r.batch_wait),
                            FormatValue(r.service_wait), slo ? "yes" : "NO"};
                  });
  std::cout << "\n";
  PrintBenchHeader("Figure 6", "scheduler busyness vs t_job(service)",
                   "single-path scales linearly to saturation; multi-path and "
                   "Omega keep the batch path unaffected");
  PrintArchTables(results,
                  {"cluster", "t_job(service) [s]", "batch busy (+/-MAD)",
                   "service busy (+/-MAD)", "abandoned"},
                  [](const SweepResult& r) -> std::vector<std::string> {
                    return {r.cluster, FormatValue(r.t_job_secs),
                            FormatValue(r.batch_busy) + " +/- " +
                                FormatValue(r.batch_busy_mad),
                            FormatValue(r.service_busy) + " +/- " +
                                FormatValue(r.service_busy_mad),
                            std::to_string(r.abandoned)};
                  });

  RunningStats batch_wait;
  RunningStats service_wait;
  RunningStats batch_busy;
  RunningStats service_busy;
  int64_t abandoned = 0;
  for (const SweepResult& r : results) {
    batch_wait.Add(r.batch_wait);
    service_wait.Add(r.service_wait);
    batch_busy.Add(r.batch_busy);
    service_busy.Add(r.service_busy);
    abandoned += r.abandoned;
  }
  runner.report().AddMetric("batch_wait_mean_s", batch_wait.mean());
  runner.report().AddMetric("batch_wait_max_s", batch_wait.max());
  runner.report().AddMetric("service_wait_mean_s", service_wait.mean());
  runner.report().AddMetric("service_wait_max_s", service_wait.max());
  runner.report().AddMetric("batch_busy_mean", batch_busy.mean());
  runner.report().AddMetric("service_busy_mean", service_busy.mean());
  runner.report().AddMetric("jobs_abandoned_total",
                            static_cast<double>(abandoned));
  FinishSweep(runner);
  return 0;
}
