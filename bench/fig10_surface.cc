// Figure 10: impact of varying t_job(service) and t_task(service) on scheduler
// busyness for five scheduling schemes on cluster B: (a) monolithic
// single-path, (b) monolithic multi-path, (c) two-level (Mesos), (d)
// shared-state (Omega), (e) shared-state with coarse-grained conflict
// detection and gang scheduling. Red shading in the paper marks operating
// points where part of the workload remained unscheduled — reported here as
// the "unsched" column.
//
// Paper shape: (a) saturates across the whole plane quickly; (b) and (d) stay
// low except at extreme decision times; (c) degrades badly and abandons work;
// (e) is strictly worse than (d).
//
// Usage:
//   fig10_surface                        full grid, 0.25 days
//                                        (OMEGA_BENCH_DAYS)
//   fig10_surface --smoke-write <golden> regenerate the CI smoke golden
//   fig10_surface --smoke-check <golden> short run, bit-exact diff
//
// The smoke golden is the full grid at a short horizon: the only golden that
// runs all five schemes, and Mesos with t_task(service) varied. The smoke
// modes are the golden harness in bench_common.h.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/mesos/mesos_simulation.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/monolithic.h"

namespace omega {
namespace {

constexpr uint64_t kFig10BaseSeed = 10000;
constexpr double kSmokeHorizonDays = 0.02;

constexpr const char* kSchemes[] = {"mono-single", "mono-multi", "mesos",
                                    "omega", "omega-coarse-gang"};
const std::vector<double> kTjobs{0.1, 1.0, 10.0, 100.0};
const std::vector<double> kTtasks{0.001, 0.01, 0.1, 1.0};

struct Point {
  const char* scheme;
  double t_job;
  double t_task;
};

struct Row {
  Point p;
  double busyness = 0.0;
  int64_t scheduled = 0;
  int64_t unscheduled = 0;
  uint64_t fingerprint = 0;
};

// The grid in trial order: scheme-major, then t_job, then t_task.
std::vector<Point> Grid() {
  std::vector<Point> points;
  for (const char* scheme : kSchemes) {
    for (double tj : kTjobs) {
      for (double tt : kTtasks) {
        points.push_back({scheme, tj, tt});
      }
    }
  }
  return points;
}

SchedulerConfig ServiceTimes(double t_job, double t_task) {
  SchedulerConfig c = DefaultSchedulerConfig("service");
  c.service_times.t_job = Duration::FromSeconds(t_job);
  c.service_times.t_task = Duration::FromSeconds(t_task);
  return c;
}

// One Fig. 10 trial on cluster B: the service scheduler's busyness and the
// jobs left unscheduled at the horizon.
Row RunPoint(const Point& p, Duration horizon, uint64_t seed) {
  SimOptions opts;
  opts.horizon = horizon;
  opts.seed = seed;
  const ClusterConfig cfg = ClusterB();
  Row row;
  row.p = p;
  const std::string scheme = p.scheme;
  const SimTime end = SimTime::Zero() + horizon;
  if (scheme == "mono-single" || scheme == "mono-multi") {
    SchedulerConfig sched = ServiceTimes(p.t_job, p.t_task);
    if (scheme == "mono-single") {
      sched.batch_times = sched.service_times;
    }
    MonolithicSimulation sim(cfg, opts, sched);
    sim.Run();
    const auto& m = sim.scheduler().metrics();
    row.busyness = m.Busyness(end).median;
    row.scheduled =
        m.JobsScheduled(JobType::kBatch) + m.JobsScheduled(JobType::kService);
    row.unscheduled = sim.JobsSubmittedTotal() - row.scheduled;
    row.fingerprint = CellFingerprint(sim.cell());
  } else if (scheme == "mesos") {
    MesosSimulation sim(cfg, opts, DefaultSchedulerConfig("batch"),
                        ServiceTimes(p.t_job, p.t_task));
    sim.Run();
    row.busyness = sim.service_framework().metrics().Busyness(end).median;
    row.scheduled =
        sim.batch_framework().metrics().JobsScheduled(JobType::kBatch) +
        sim.service_framework().metrics().JobsScheduled(JobType::kService);
    row.unscheduled = sim.JobsSubmittedTotal() - row.scheduled;
    row.fingerprint = CellFingerprint(sim.cell());
  } else {
    SchedulerConfig batch = DefaultSchedulerConfig("batch");
    SchedulerConfig service = ServiceTimes(p.t_job, p.t_task);
    if (scheme == "omega-coarse-gang") {
      for (SchedulerConfig* c : {&batch, &service}) {
        c->conflict_mode = ConflictMode::kCoarseGrained;
        c->commit_mode = CommitMode::kAllOrNothing;
      }
    }
    OmegaSimulation sim(cfg, opts, batch, service);
    sim.Run();
    row.busyness = sim.service_scheduler().metrics().Busyness(end).median;
    row.scheduled =
        sim.service_scheduler().metrics().JobsScheduled(JobType::kService);
    for (uint32_t s = 0; s < sim.NumBatchSchedulers(); ++s) {
      row.scheduled +=
          sim.batch_scheduler(s).metrics().JobsScheduled(JobType::kBatch);
    }
    row.unscheduled = sim.JobsSubmittedTotal() - row.scheduled;
    row.fingerprint = CellFingerprint(sim.cell());
  }
  return row;
}

int FullRun() {
  PrintBenchHeader(
      "Figure 10", "busyness surface over (t_job(service), t_task(service))",
      "single-path saturates everywhere early; multi-path/Omega stay low; "
      "Mesos leaves workload unscheduled; coarse+gang worse than Omega");
  const Duration horizon = BenchHorizon(0.25);
  const std::vector<Point> points = Grid();
  SweepRunner runner("fig10", kFig10BaseSeed);
  runner.report().AddMetric("sim_days", horizon.ToDays());
  const std::vector<Row> rows =
      runner.Run(points.size(), [&](const TrialContext& ctx) {
        return RunPoint(points[ctx.index], horizon, ctx.seed);
      });

  for (const char* scheme : kSchemes) {
    std::cout << "\n--- " << scheme
              << " (rows: t_job(service) [s]; cols: t_task(service) [s]) ---\n";
    TablePrinter table({"t_job \\ t_task", "0.001", "0.01", "0.1", "1.0"});
    for (double tj : kTjobs) {
      std::vector<std::string> cells{FormatValue(tj)};
      for (double tt : kTtasks) {
        for (const Row& r : rows) {
          if (r.p.scheme == std::string(scheme) && r.p.t_job == tj &&
              r.p.t_task == tt) {
            std::string cell = FormatValue(r.busyness);
            if (r.unscheduled > 20) {
              cell += "*";  // the paper's red shading: unscheduled workload
            }
            cells.push_back(cell);
          }
        }
      }
      table.AddRow(cells);
    }
    table.Print(std::cout);
  }
  std::cout << "\n'*' marks operating points with unscheduled workload "
               "(the paper's red shading).\n";
  RunningStats busyness;
  int64_t unscheduled_points = 0;
  for (const Row& r : rows) {
    busyness.Add(r.busyness);
    if (r.unscheduled > 20) {
      ++unscheduled_points;
    }
  }
  runner.report().AddMetric("busyness_mean", busyness.mean());
  runner.report().AddMetric("unscheduled_points",
                            static_cast<double>(unscheduled_points));
  FinishSweep(runner);
  return 0;
}

// The full grid at the smoke horizon, seeded as the full run.
std::vector<std::string> RunSmoke() {
  const std::vector<Point> points = Grid();
  const Duration horizon = Duration::FromDays(kSmokeHorizonDays);
  SweepRunner runner("fig10_smoke", kFig10BaseSeed);
  const std::vector<std::string> lines =
      runner.Run(points.size(), [&](const TrialContext& ctx) {
        const Row r = RunPoint(points[ctx.index], horizon, ctx.seed);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s-tjob%g-ttask%g %a %lld %lld %016llx", r.p.scheme,
                      r.p.t_job, r.p.t_task, r.busyness,
                      static_cast<long long>(r.scheduled),
                      static_cast<long long>(r.unscheduled),
                      static_cast<unsigned long long>(r.fingerprint));
        return std::string(buf);
      });
  std::cout << "fig10_surface smoke: " << runner.report().trials
            << " trials on " << runner.report().threads << " thread(s) in "
            << runner.report().wall_seconds << " s\n";
  return lines;
}

SmokeGolden Golden() {
  std::ostringstream header;
  header << "# fig10_surface smoke golden: five schemes on cluster B over "
            "t_job(service) x t_task(service), horizon_days="
         << kSmokeHorizonDays << " base_seed=" << kFig10BaseSeed
         << " (trial i uses SubstreamSeed(base_seed, i))\n"
         << "# fields: scheme-tjob-ttask service_busy (hex float) scheduled "
            "unscheduled fnv1a(allocated,seqnum of every machine)\n";
  return SmokeGolden{"fig10_surface", header.str(), RunSmoke};
}

}  // namespace
}  // namespace omega

int main(int argc, char** argv) {
  return omega::SmokeGoldenMain(argc, argv, omega::Golden(), omega::FullRun);
}
