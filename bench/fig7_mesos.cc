// Figure 7: two-level scheduling (Mesos): job wait time, scheduler busyness
// and abandoned jobs as a function of t_job(service), clusters A, B, C.
// The paper simulates one day for Mesos (the failed scheduling attempts make
// longer runs impractical) — so does this bench.
//
// Paper shape: batch framework busyness is much higher than the monolithic
// multi-path equivalent (offer locking starves it into repeated futile
// attempts); at long service decision times jobs hit the 1,000-attempt limit
// and are abandoned.
//
// Usage:
//   fig7_mesos                        full grid, 1 day (OMEGA_BENCH_DAYS)
//   fig7_mesos --smoke-write <golden> regenerate the CI smoke golden
//   fig7_mesos --smoke-check <golden> short run, bit-exact diff vs the golden
//
// The smoke modes are the golden harness in bench_common.h.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/mesos/mesos_simulation.h"

namespace omega {
namespace {

constexpr uint64_t kFig7BaseSeed = 7000;
constexpr double kSmokeHorizonDays = 0.05;

struct Point {
  const char* cluster;
  double t_job;
};

struct Row {
  Point p;
  double batch_wait, service_wait, batch_busy, service_busy;
  int64_t abandoned;
  OfferCounters offers;
};

int FullRun() {
  PrintBenchHeader("Figure 7", "two-level (Mesos): wait, busyness, abandoned",
                   "batch framework busyness far above multi-path monolithic; "
                   "jobs abandoned at long t_job(service)");
  const Duration horizon = BenchHorizon(1.0);
  std::vector<Point> points;
  for (const char* cluster : {"A", "B", "C"}) {
    for (double t : TjobSweep()) {
      points.push_back({cluster, t});
    }
  }
  SweepRunner runner("fig7", kFig7BaseSeed);
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
                   sim.TotalJobsAbandoned(),
                   sim.allocator().counters()};
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
    table.AddRow({r.p.cluster, FormatValue(r.p.t_job),
                  FormatValue(r.batch_wait), FormatValue(r.service_wait),
                  FormatValue(r.batch_busy), FormatValue(r.service_busy),
                  std::to_string(r.abandoned)});
  }
  table.Print(std::cout);
  RunningStats batch_busy;
  int64_t abandoned_total = 0;
  OfferCounters offers;
  for (const Row& r : rows) {
    batch_busy.Add(r.batch_busy);
    abandoned_total += r.abandoned;
    offers.rounds += r.offers.rounds;
    offers.slices_offered += r.offers.slices_offered;
    offers.slices_consumed += r.offers.slices_consumed;
    offers.machines_examined += r.offers.machines_examined;
    offers.holds_transferred += r.offers.holds_transferred;
  }
  runner.report().AddMetric("batch_busy_mean", batch_busy.mean());
  runner.report().AddMetric("abandoned_total",
                            static_cast<double>(abandoned_total));
  // Allocator work summed over the grid (deterministic).
  runner.report().AddMetric("offer_rounds", static_cast<double>(offers.rounds));
  runner.report().AddMetric("offer_slices_offered",
                            static_cast<double>(offers.slices_offered));
  runner.report().AddMetric("offer_slices_consumed",
                            static_cast<double>(offers.slices_consumed));
  runner.report().AddMetric("offer_machines_examined",
                            static_cast<double>(offers.machines_examined));
  runner.report().AddMetric("offer_holds_transferred",
                            static_cast<double>(offers.holds_transferred));
  FinishSweep(runner);
  return 0;
}

// One smoke trial: the grid's clusters at three t_job points, plus a hoarding
// (all-or-nothing service) row and a failure row whose kills, downtime
// reservations and repairs change machines under outstanding offers.
struct SmokeCase {
  const char* label;
  const char* cluster;
  double t_job;
  bool hoarding;
  bool failures;
};

constexpr SmokeCase kSmokeCases[] = {
    {"A-tjob0.1", "A", 0.1, false, false},
    {"A-tjob10", "A", 10.0, false, false},
    {"A-tjob100", "A", 100.0, false, false},
    {"B-tjob0.1", "B", 0.1, false, false},
    {"B-tjob10", "B", 10.0, false, false},
    {"B-tjob100", "B", 100.0, false, false},
    {"C-tjob0.1", "C", 0.1, false, false},
    {"C-tjob10", "C", 10.0, false, false},
    {"C-tjob100", "C", 100.0, false, false},
    {"A-hoarding", "A", 1.0, true, false},
    {"A-failures", "A", 1.0, false, true},
};

std::string RunSmokeCase(const SmokeCase& c, uint64_t seed) {
  SimOptions opts;
  opts.horizon = Duration::FromDays(kSmokeHorizonDays);
  opts.seed = seed;
  if (c.failures) {
    opts.machine_failure_rate_per_day = 2.0;
    opts.machine_repair_time = Duration::FromMinutes(5);
  }
  SchedulerConfig service = ServiceConfigWithTjob(c.t_job);
  if (c.hoarding) {
    service.commit_mode = CommitMode::kAllOrNothing;
  }
  MesosSimulation sim(ClusterByName(c.cluster), opts,
                      DefaultSchedulerConfig("batch"), service);
  sim.Run();
  const SimTime end = sim.EndTime();
  const SchedulerMetrics& bm = sim.batch_framework().metrics();
  const SchedulerMetrics& sm = sim.service_framework().metrics();
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%s %a %a %a %a %lld %lld %lld %016llx",
                c.label, bm.MeanWait(JobType::kBatch),
                sm.MeanWait(JobType::kService), bm.Busyness(end).median,
                sm.Busyness(end).median,
                static_cast<long long>(sim.TotalJobsAbandoned()),
                static_cast<long long>(bm.TotalAttempts()),
                static_cast<long long>(sm.TotalAttempts()),
                static_cast<unsigned long long>(CellFingerprint(sim.cell())));
  return buf;
}

std::vector<std::string> RunSmoke() {
  constexpr size_t kCases = sizeof(kSmokeCases) / sizeof(kSmokeCases[0]);
  SweepRunner runner("fig7_smoke", kFig7BaseSeed);
  const std::vector<std::string> lines =
      runner.Run(kCases, [&](const TrialContext& ctx) {
        return RunSmokeCase(kSmokeCases[ctx.index],
                            ctx.base_seed + ctx.index);
      });
  std::cout << "fig7_mesos smoke: " << runner.report().trials << " trials on "
            << runner.report().threads << " thread(s) in "
            << runner.report().wall_seconds << " s\n";
  return lines;
}

SmokeGolden Golden() {
  std::ostringstream header;
  header << "# fig7_mesos smoke golden: Mesos DRF offers, horizon_days="
         << kSmokeHorizonDays << " base_seed=" << kFig7BaseSeed
         << " (trial i uses base_seed+i)\n"
         << "# fields: label batch_wait service_wait batch_busy service_busy "
            "(hex floats) abandoned batch_attempts service_attempts "
            "fnv1a(allocated,seqnum of every machine)\n";
  return SmokeGolden{"fig7_mesos", header.str(), RunSmoke};
}

}  // namespace
}  // namespace omega

int main(int argc, char** argv) {
  return omega::SmokeGoldenMain(argc, argv, omega::Golden(), omega::FullRun);
}
