// Figure 12: high-fidelity simulator on a cluster B trace, varying
// t_job(service): (a) job wait time (average and 90th percentile), (b) mean
// conflict fraction, (c) scheduler busyness including the no-conflict
// approximation.
//
// Paper shape: once t_job(service) reaches ~10 s the conflict fraction
// crosses 1.0 (every service job needs at least one retry on average) and the
// service scheduler misses the 30 s wait-time SLO even before saturating; the
// busyness with conflicts runs ~40% above the no-conflict approximation.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/hifi/hifi_simulation.h"

using namespace omega;

int main() {
  PrintBenchHeader("Figure 12", "hifi cluster B: wait, conflicts, busyness",
                   "conflict fraction crosses 1.0 near t_job(service)=10s; "
                   "SLO missed from conflicts alone; busyness ~40% above "
                   "no-conflict");
  const Duration horizon = BenchHorizon(1.0);
  const std::vector<double> t_jobs = TjobSweep();
  struct Row {
    double t_job;
    double batch_wait_avg, batch_wait_p90;
    double service_wait_avg, service_wait_p90;
    double batch_conflict, service_conflict;
    double batch_busy, service_busy, service_busy_noconflict;
  };
  SweepRunner runner("fig12", 12000);
  runner.report().AddMetric("sim_days", horizon.ToDays());
  const std::vector<Row> rows =
      runner.Run(t_jobs.size(), [&](const TrialContext& ctx) {
        const size_t i = ctx.index;
        SimOptions opts;
        opts.horizon = horizon;
        opts.seed = ctx.base_seed + i;
        auto sim =
            MakeHifiSimulation(ClusterB(), opts, DefaultSchedulerConfig("batch"),
                               ServiceConfigWithTjob(t_jobs[i]));
        auto trace =
            GenerateHifiTrace(ClusterB(), horizon, ctx.base_seed / 10 + i);
        sim->RunTrace(std::move(trace));
        const SimTime end = sim->EndTime();
        const auto& bm = sim->batch_scheduler(0).metrics();
        const auto& sm = sim->service_scheduler().metrics();
        return Row{t_jobs[i],
                   bm.MeanWait(JobType::kBatch),
                   bm.WaitPercentile(JobType::kBatch, 0.9),
                   sm.MeanWait(JobType::kService),
                   sm.WaitPercentile(JobType::kService, 0.9),
                   bm.ConflictFraction(end).mean,
                   sm.ConflictFraction(end).mean,
                   bm.Busyness(end).median,
                   sm.Busyness(end).median,
                   sm.BusynessNoConflict(end).median};
      });
  for (double t_job : t_jobs) {
    char label[32];
    std::snprintf(label, sizeof(label), "tjob%g", t_job);
    runner.report().trial_labels.emplace_back(label);
  }

  std::cout << "\n(a) job wait time [s]\n";
  TablePrinter wait({"t_job(service)", "batch avg", "batch 90%ile",
                     "service avg", "service 90%ile", "service SLO(30s)"});
  for (const Row& r : rows) {
    wait.AddRow({FormatValue(r.t_job), FormatValue(r.batch_wait_avg),
                 FormatValue(r.batch_wait_p90), FormatValue(r.service_wait_avg),
                 FormatValue(r.service_wait_p90),
                 r.service_wait_avg <= 30.0 ? "met" : "MISSED"});
  }
  wait.Print(std::cout);

  std::cout << "\n(b) mean conflict fraction\n";
  TablePrinter confl({"t_job(service)", "batch", "service"});
  for (const Row& r : rows) {
    confl.AddRow({FormatValue(r.t_job), FormatValue(r.batch_conflict),
                  FormatValue(r.service_conflict)});
  }
  confl.Print(std::cout);

  std::cout << "\n(c) scheduler busyness\n";
  TablePrinter busy({"t_job(service)", "batch", "service",
                     "service (no conflicts)", "overhead"});
  for (const Row& r : rows) {
    const double overhead =
        r.service_busy_noconflict > 1e-9
            ? r.service_busy / r.service_busy_noconflict - 1.0
            : 0.0;
    busy.AddRow({FormatValue(r.t_job), FormatValue(r.batch_busy),
                 FormatValue(r.service_busy),
                 FormatValue(r.service_busy_noconflict),
                 FormatValue(overhead * 100.0) + "%"});
  }
  busy.Print(std::cout);
  RunningStats service_conflict;
  for (const Row& r : rows) {
    service_conflict.Add(r.service_conflict);
  }
  runner.report().AddMetric("service_conflict_fraction_mean",
                            service_conflict.mean());
  FinishSweep(runner);
  return 0;
}
