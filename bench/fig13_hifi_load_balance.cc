// Figure 13: high-fidelity simulator, cluster C trace: load-balancing the
// batch workload across 3 batch schedulers, varying t_job(batch); scheduler
// busyness and job wait time per scheduler, with a single-batch-scheduler
// approximation for comparison.
//
// Paper shape: three batch schedulers buy ~3x scalability (saturation moves
// from t_job(batch) ~4 s to ~15 s) while the conflict fraction stays low
// (~0.1) and all schedulers meet the 30 s wait-time SLO up to saturation.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/hifi/hifi_simulation.h"

using namespace omega;

int main() {
  PrintBenchHeader("Figure 13", "hifi cluster C: 3 batch schedulers",
                   "~3x scalability vs a single batch scheduler (saturation "
                   "4s -> 15s); conflict fraction stays ~0.1");
  const Duration horizon = BenchHorizon(0.5);
  const std::vector<double> t_jobs{0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0, 30.0};
  struct Row {
    double t_job;
    uint32_t schedulers;
    double busy[3] = {0, 0, 0};
    double wait[3] = {0, 0, 0};
    double conflict_fraction = 0.0;
    double service_busy = 0.0;
  };
  // Trials alternate single / triple batch schedulers per t_job(batch); both
  // of a pair replay the same trace.
  SweepRunner runner("fig13", 13000);
  runner.report().AddMetric("sim_days", horizon.ToDays());
  const std::vector<Row> rows =
      runner.Run(t_jobs.size() * 2, [&](const TrialContext& ctx) {
        const size_t i = ctx.index;
        const double t_job = t_jobs[i / 2];
        const uint32_t schedulers = (i % 2 == 0) ? 1 : 3;
        SimOptions opts;
        opts.horizon = horizon;
        opts.seed = ctx.base_seed + i;
        SchedulerConfig batch = DefaultSchedulerConfig("batch");
        batch.batch_times.t_job = Duration::FromSeconds(t_job);
        HifiOptions hifi;
        hifi.num_batch_schedulers = schedulers;
        auto sim = MakeHifiSimulation(ClusterC(), opts, batch,
                                      DefaultSchedulerConfig("service"), hifi);
        auto trace =
            GenerateHifiTrace(ClusterC(), horizon, ctx.base_seed / 10 + i / 2);
        sim->RunTrace(std::move(trace));
        const SimTime end = sim->EndTime();
        Row row;
        row.t_job = t_job;
        row.schedulers = schedulers;
        for (uint32_t s = 0; s < schedulers; ++s) {
          row.busy[s] = sim->batch_scheduler(s).metrics().Busyness(end).median;
          row.wait[s] =
              sim->batch_scheduler(s).metrics().MeanWait(JobType::kBatch);
        }
        row.conflict_fraction = sim->MeanBatchConflictFraction();
        row.service_busy =
            sim->service_scheduler().metrics().Busyness(end).median;
        return row;
      });
  for (const Row& r : rows) {
    char label[48];
    std::snprintf(label, sizeof(label), "tjob%g-batch%u", r.t_job,
                  r.schedulers);
    runner.report().trial_labels.emplace_back(label);
  }

  std::cout << "\n(a) scheduler busyness\n";
  TablePrinter busy({"t_job(batch) [s]", "single batch (approx.)", "batch 0",
                     "batch 1", "batch 2", "service", "conflict frac (3x)"});
  for (size_t i = 0; i < t_jobs.size(); ++i) {
    const Row& single = rows[2 * i];
    const Row& triple = rows[2 * i + 1];
    busy.AddRow({FormatValue(single.t_job), FormatValue(single.busy[0]),
                 FormatValue(triple.busy[0]), FormatValue(triple.busy[1]),
                 FormatValue(triple.busy[2]), FormatValue(triple.service_busy),
                 FormatValue(triple.conflict_fraction)});
  }
  busy.Print(std::cout);

  std::cout << "\n(b) mean batch job wait time [s]\n";
  TablePrinter wait({"t_job(batch) [s]", "single batch (approx.)", "batch 0",
                     "batch 1", "batch 2", "meets 30s SLO (3x)"});
  for (size_t i = 0; i < t_jobs.size(); ++i) {
    const Row& single = rows[2 * i];
    const Row& triple = rows[2 * i + 1];
    const bool slo = triple.wait[0] <= 30 && triple.wait[1] <= 30 &&
                     triple.wait[2] <= 30;
    wait.AddRow({FormatValue(single.t_job), FormatValue(single.wait[0]),
                 FormatValue(triple.wait[0]), FormatValue(triple.wait[1]),
                 FormatValue(triple.wait[2]), slo ? "yes" : "NO"});
  }
  wait.Print(std::cout);
  RunningStats conflict;
  for (size_t i = 1; i < rows.size(); i += 2) {
    conflict.Add(rows[i].conflict_fraction);
  }
  runner.report().AddMetric("conflict_fraction_3x_mean", conflict.mean());
  FinishSweep(runner);
  return 0;
}
