// Figure 14: effect of gang scheduling (all-or-nothing transactions) and
// coarse-grained conflict detection on conflict fraction and scheduler
// busyness, as a function of t_job(service) (high-fidelity, cluster C).
//
// Paper shape: coarse-grained detection inflates conflicts and busyness 2-3x
// through spurious conflicts; all-or-nothing commits roughly double the
// conflict fraction (retries must re-place every task). Incremental
// transactions with fine-grained detection are clearly the right default.
//
// Usage:
//   fig14_conflict_modes                        full grid, 0.5 days
//                                               (OMEGA_BENCH_DAYS)
//   fig14_conflict_modes --smoke-write <golden> regenerate the CI smoke golden
//   fig14_conflict_modes --smoke-check <golden> short run, bit-exact diff vs
//                                               the golden
//
// The smoke modes are the golden harness in bench_common.h; they pin the
// high-fidelity path (ScoringPlacer, headroom fullness, constraints) that no
// other golden runs.
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/hifi/hifi_simulation.h"

namespace omega {
namespace {

constexpr uint64_t kFig14BaseSeed = 14000;
constexpr double kSmokeHorizonDays = 0.05;

struct Mode {
  const char* name;
  ConflictMode conflict;
  CommitMode commit;
};

constexpr Mode kModes[] = {
    {"Fine/Incr.", ConflictMode::kFineGrained, CommitMode::kIncremental},
    {"Fine/Gang", ConflictMode::kFineGrained, CommitMode::kAllOrNothing},
    {"Coarse/Incr.", ConflictMode::kCoarseGrained, CommitMode::kIncremental},
    {"Coarse/Gang", ConflictMode::kCoarseGrained, CommitMode::kAllOrNothing},
};
constexpr size_t kNumModes = sizeof(kModes) / sizeof(kModes[0]);
constexpr double kTjobs[] = {1.0, 10.0, 100.0};
constexpr size_t kNumTjobs = sizeof(kTjobs) / sizeof(kTjobs[0]);

// Runs grid point `index` (mode-major over kModes x kTjobs) to `horizon`.
// Paired comparison: every mode sees the same (sim, trace) seeds for a given
// t_job, so mode deltas are not noise. Substreams 2k and 2k+1 of the base
// seed, not ctx.seed (which differs per trial).
std::unique_ptr<OmegaSimulation> RunTrial(size_t index, uint64_t base_seed,
                                          Duration horizon) {
  const Mode& mode = kModes[index / kNumTjobs];
  const uint64_t pair_index = index % kNumTjobs;
  SimOptions opts;
  opts.horizon = horizon;
  opts.seed = SubstreamSeed(base_seed, 2 * pair_index);
  SchedulerConfig service = ServiceConfigWithTjob(kTjobs[pair_index]);
  service.conflict_mode = mode.conflict;
  service.commit_mode = mode.commit;
  SchedulerConfig batch = DefaultSchedulerConfig("batch");
  batch.conflict_mode = mode.conflict;
  // Gang semantics are evaluated for the service scheduler's jobs; the batch
  // path keeps incremental commits (the paper recommends job-level
  // granularity for gang scheduling).
  auto sim = MakeHifiSimulation(ClusterC(), opts, batch, service);
  auto trace = GenerateHifiTrace(ClusterC(), horizon,
                                 SubstreamSeed(base_seed, 2 * pair_index + 1));
  sim->RunTrace(std::move(trace));
  return sim;
}

int FullRun() {
  PrintBenchHeader("Figure 14", "hifi cluster C: conflict detection x commit",
                   "coarse 2-3x worse; gang ~2x conflict fraction; "
                   "fine/incremental should be the default");
  const Duration horizon = BenchHorizon(0.5);
  struct Row {
    const char* mode;
    double t_job;
    double conflict_fraction, busyness;
  };
  SweepRunner runner("fig14", kFig14BaseSeed);
  runner.report().AddMetric("sim_days", horizon.ToDays());
  const std::vector<Row> rows =
      runner.Run(kNumModes * kNumTjobs, [&](const TrialContext& ctx) {
        const auto sim = RunTrial(ctx.index, ctx.base_seed, horizon);
        const auto& sm = sim->service_scheduler().metrics();
        return Row{kModes[ctx.index / kNumTjobs].name,
                   kTjobs[ctx.index % kNumTjobs],
                   sm.ConflictFraction(sim->EndTime()).mean,
                   sm.Busyness(sim->EndTime()).median};
      });

  std::cout << "\n(a) conflict fraction / (b) service scheduler busyness\n";
  TablePrinter table({"mode", "t_job(service) [s]", "conflict fraction",
                      "busyness"});
  for (const Row& r : rows) {
    table.AddRow({r.mode, FormatValue(r.t_job),
                  FormatValue(r.conflict_fraction), FormatValue(r.busyness)});
  }
  table.Print(std::cout);
  RunningStats conflict;
  RunningStats busyness;
  for (const Row& r : rows) {
    conflict.Add(r.conflict_fraction);
    busyness.Add(r.busyness);
  }
  runner.report().AddMetric("conflict_fraction_mean", conflict.mean());
  runner.report().AddMetric("busyness_mean", busyness.mean());
  FinishSweep(runner);
  return 0;
}

// The full grid at a short horizon: one line per grid point.
std::vector<std::string> RunSmoke() {
  const Duration horizon = Duration::FromDays(kSmokeHorizonDays);
  SweepRunner runner("fig14_smoke", kFig14BaseSeed);
  const std::vector<std::string> lines =
      runner.Run(kNumModes * kNumTjobs, [&](const TrialContext& ctx) {
        const auto sim = RunTrial(ctx.index, ctx.base_seed, horizon);
        const SimTime end = sim->EndTime();
        const SchedulerMetrics& sm = sim->service_scheduler().metrics();
        const SchedulerMetrics& bm = sim->batch_scheduler(0).metrics();
        char buf[512];
        std::snprintf(
            buf, sizeof(buf), "%s-tjob%g %a %a %a %a %lld %lld %016llx",
            kModes[ctx.index / kNumTjobs].name, kTjobs[ctx.index % kNumTjobs],
            sm.ConflictFraction(end).mean, sm.Busyness(end).median,
            bm.ConflictFraction(end).mean, bm.Busyness(end).median,
            static_cast<long long>(sm.TotalAttempts()),
            static_cast<long long>(bm.TotalAttempts()),
            static_cast<unsigned long long>(CellFingerprint(sim->cell())));
        return std::string(buf);
      });
  std::cout << "fig14_conflict_modes smoke: " << runner.report().trials
            << " trials on " << runner.report().threads << " thread(s) in "
            << runner.report().wall_seconds << " s\n";
  return lines;
}

SmokeGolden Golden() {
  std::ostringstream header;
  header << "# fig14_conflict_modes smoke golden: hifi cluster C, "
            "horizon_days="
         << kSmokeHorizonDays << " base_seed=" << kFig14BaseSeed
         << " (the full mode x t_job grid)\n"
         << "# fields: mode-tjob service_conflict_fraction service_busy "
            "batch_conflict_fraction batch_busy (hex floats) "
            "service_attempts batch_attempts "
            "fnv1a(allocated,seqnum of every machine)\n";
  return SmokeGolden{"fig14_conflict_modes", header.str(), RunSmoke};
}

}  // namespace
}  // namespace omega

int main(int argc, char** argv) {
  return omega::SmokeGoldenMain(argc, argv, omega::Golden(), omega::FullRun);
}
