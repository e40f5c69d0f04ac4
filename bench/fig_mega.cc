// fig_mega: the 100k-machine mega-cell sweep over the SoA placement core.
//
// Not a paper figure — the paper's cells top out around ~12.5k machines
// (cluster B/C) — but its scalability argument is that shared-state
// scheduling grows with cell size, and the ROADMAP's mega-cell item asks for
// exactly this regime: cluster C's per-machine load scaled to 100k machines
// (8x the machines, 8x the arrival rates), run over a day-scale horizon on
// the struct-of-arrays placement core (DESIGN.md §11). Emits
// BENCH_fig_mega.json so the mega-cell wall-clock trajectory is tracked
// across PRs alongside the figure benches.
//
// Usage:
//   fig_mega                        full run (day horizon, 3 seeds)
//   fig_mega --smoke-write <golden> regenerate the CI smoke golden
//   fig_mega --smoke-check <golden> short run, bit-exact diff vs the golden
//
// The smoke modes are the golden harness in bench_common.h.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/cell_state.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/placement.h"
#include "src/workload/job.h"

namespace omega {
namespace {

constexpr uint64_t kMegaBaseSeed = 9000;
constexpr double kFullHorizonDays = 1.0;
constexpr int kFullTrials = 3;
constexpr double kSmokeHorizonDays = 0.002;
constexpr int kSmokeTrials = 2;

struct Row {
  double batch_wait = 0.0;
  double service_wait = 0.0;
  double batch_busy = 0.0;
  double service_busy = 0.0;
  double conflict_fraction = 0.0;
  double cpu_utilization = 0.0;
  int64_t submitted = 0;
  int64_t abandoned = 0;
};

std::vector<Row> RunMegaSweep(Duration horizon, int trials,
                              SweepRunner& runner) {
  runner.report().AddMetric("sim_days", horizon.ToDays());
  runner.report().AddMetric("num_machines", 100000.0);
  return runner.Run(trials, [&](const TrialContext& ctx) {
    SimOptions opts;
    opts.horizon = horizon;
    opts.seed = ctx.seed;
    OmegaSimulation sim(ClusterMega(), opts, DefaultSchedulerConfig("batch"),
                        DefaultSchedulerConfig("service"));
    sim.Run();
    const SimTime end = sim.EndTime();
    const auto& bm = sim.batch_scheduler(0).metrics();
    const auto& sm = sim.service_scheduler().metrics();
    return Row{bm.MeanWait(JobType::kBatch),
               sm.MeanWait(JobType::kService),
               bm.Busyness(end).median,
               sm.Busyness(end).median,
               sm.ConflictFraction(end).mean,
               sim.cell().CpuUtilization(),
               sim.JobsSubmittedTotal(),
               sim.TotalJobsAbandoned()};
  });
}

// --------------------------------------------------------------------------
// Placement-stress probe: the worst case of the sequential constrained scan.
//
// The day-long trials above are not scan-bound — their no-fit sweeps are
// short, chunked SoA passes (§11). The expensive regime is a
// constraint-picky scan over a cell where raw fits pass everywhere
// (the raw sweep stops at every machine) but only a sparse subset satisfies
// the job's attribute constraint: first-fit then walks thousands of futile
// raw-fit hits per placement. This probe measures exactly that — 100k empty
// machines, one matching machine per ~16k — and records its wall-clock in
// BENCH_fig_mega.json (stress_wall_seconds). The placement checksum is
// pinned in the smoke golden.
// --------------------------------------------------------------------------

constexpr uint32_t kStressMachines = 100000;
constexpr uint32_t kStressMatchStride = 16411;  // prime; ~6 matches per cell
constexpr int kStressFullPlacements = 8192;
constexpr int kStressSmokePlacements = 128;

struct StressResult {
  int64_t placed = 0;
  uint64_t checksum = 0;  // FNV-1a over chosen machine ids
  double wall_seconds = 0.0;
};

StressResult RunPlacementStress(int placements) {
  CellState cell(kStressMachines, Resources{16.0, 64.0});
  for (MachineId m = 0; m < kStressMachines; ++m) {
    cell.SetAttributes(m, {m % kStressMatchStride == 7 ? 1 : 0});
  }
  RandomizedFirstFitPlacer placer(/*max_random_probes=*/0,
                                  /*respect_constraints=*/true);
  Job job;
  job.task_resources = Resources{2.0, 8.0};
  job.num_tasks = 1;
  job.constraints.push_back(PlacementConstraint{
      /*attribute_key=*/0, /*attribute_value=*/1, /*must_equal=*/true});
  Rng rng(kMegaBaseSeed * 7919 + 17);
  StressResult r;
  r.checksum = 1469598103934665603ULL;
  std::vector<TaskClaim> claims;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < placements; ++i) {
    claims.clear();
    r.placed += placer.PlaceTasks(cell, job, 1, rng, &claims);
    for (const TaskClaim& c : claims) {
      r.checksum = (r.checksum ^ c.machine) * 1099511628211ULL;
    }
    // Nothing is allocated, so the cell stays in the long-futile-scan regime
    // for every placement and the probe is a pure scan measurement.
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

std::string FormatStress(const StressResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "stress %lld %016llx",
                static_cast<long long>(r.placed),
                static_cast<unsigned long long>(r.checksum));
  return buf;
}

void RecordStressMetrics(SweepRunner& runner, const StressResult& r) {
  runner.report().AddMetric("stress_placements",
                            static_cast<double>(r.placed));
  runner.report().AddMetric("stress_wall_seconds", r.wall_seconds);
  if (r.wall_seconds > 0.0) {
    runner.report().AddMetric("stress_placements_per_second",
                              static_cast<double>(r.placed) / r.wall_seconds);
  }
}

std::string FormatTrial(const Row& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%a %a %a %a %a %a %lld %lld", r.batch_wait,
                r.service_wait, r.batch_busy, r.service_busy,
                r.conflict_fraction, r.cpu_utilization,
                static_cast<long long>(r.submitted),
                static_cast<long long>(r.abandoned));
  return buf;
}

std::vector<std::string> RunSmoke() {
  SweepRunner runner("fig_mega_smoke", kMegaBaseSeed);
  const std::vector<Row> rows = RunMegaSweep(
      Duration::FromDays(kSmokeHorizonDays), kSmokeTrials, runner);
  std::vector<std::string> lines;
  lines.reserve(rows.size() + 1);
  for (const Row& r : rows) {
    lines.push_back(FormatTrial(r));
  }
  const StressResult stress = RunPlacementStress(kStressSmokePlacements);
  lines.push_back(FormatStress(stress));
  std::cout << "fig_mega smoke: " << runner.report().trials << " trials on "
            << runner.report().threads << " thread(s) in "
            << runner.report().wall_seconds << " s; stress probe "
            << stress.placed << " placements in " << stress.wall_seconds
            << " s\n";
  return lines;
}

SmokeGolden Golden() {
  std::ostringstream header;
  header << "# fig_mega smoke golden: 100k-machine omega cell, horizon_days="
         << kSmokeHorizonDays << " trials=" << kSmokeTrials
         << " base_seed=" << kMegaBaseSeed << "\n"
         << "# fields: batch_wait service_wait batch_busy service_busy "
            "conflict_fraction cpu_utilization submitted abandoned (hex "
            "floats)\n"
         << "# last line: constraint-sweep stress probe, `stress <placed> "
            "<fnv1a-checksum-of-machine-ids>` (thread-count-invariant)\n";
  return SmokeGolden{"fig_mega", header.str(), RunSmoke};
}

int FullRun() {
  PrintBenchHeader("fig_mega", "100k-machine mega-cell, SoA placement core",
                   "bounded wall-clock at 8x cluster C's machines and "
                   "arrival rates; busyness/wait in the unsaturated regime");
  SweepRunner runner("fig_mega", kMegaBaseSeed);
  const std::vector<Row> rows = RunMegaSweep(
      Duration::FromDays(kFullHorizonDays), kFullTrials, runner);

  TablePrinter table({"trial", "batch wait [s]", "service wait [s]",
                      "batch busy", "service busy", "svc confl frac",
                      "cpu util", "submitted", "abandoned"});
  RunningStats batch_wait, batch_busy, conflict;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    table.AddRow({std::to_string(i), FormatValue(r.batch_wait),
                  FormatValue(r.service_wait), FormatValue(r.batch_busy),
                  FormatValue(r.service_busy),
                  FormatValue(r.conflict_fraction),
                  FormatValue(r.cpu_utilization), std::to_string(r.submitted),
                  std::to_string(r.abandoned)});
    batch_wait.Add(r.batch_wait);
    batch_busy.Add(r.batch_busy);
    conflict.Add(r.conflict_fraction);
  }
  table.Print(std::cout);
  runner.report().AddMetric("batch_wait_mean", batch_wait.mean());
  runner.report().AddMetric("batch_busy_mean", batch_busy.mean());
  runner.report().AddMetric("service_conflict_fraction_mean", conflict.mean());

  const StressResult stress = RunPlacementStress(kStressFullPlacements);
  RecordStressMetrics(runner, stress);
  char stress_line[256];
  std::snprintf(stress_line, sizeof(stress_line),
                "stress probe: %lld constraint-sweep placements over %u "
                "machines in %.3f s (checksum %016llx)\n",
                static_cast<long long>(stress.placed), kStressMachines,
                stress.wall_seconds,
                static_cast<unsigned long long>(stress.checksum));
  std::cout << stress_line;
  FinishSweep(runner);
  return 0;
}

}  // namespace
}  // namespace omega

int main(int argc, char** argv) {
  return omega::SmokeGoldenMain(argc, argv, omega::Golden(), omega::FullRun);
}
