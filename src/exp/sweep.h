// Deterministic parallel sweep engine for the figure benches.
//
// Every figure in the paper's evaluation is a sweep over independent
// simulation trials — (cluster, scheduler count, decision time, seed) tuples.
// SweepRunner shards those trials across threads with ParallelFor, gives each
// trial an RNG substream derived from (base seed, trial index) so results are
// bit-identical regardless of thread count, records per-trial wall-clock, and
// emits a machine-readable JSON summary (BENCH_<figure>.json) used to track
// the perf trajectory across PRs. See EXPERIMENTS.md ("Sweep engine").
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/parallel_for.h"
#include "src/common/random.h"

namespace omega {

// Provenance guard for BENCH_*.json: returns `value` if it is a plausible
// single token (non-empty, printable, no whitespace), else "unknown". The
// compiled-in git sha / build type pass through here so a failed configure-
// time `git rev-parse` (tarball build) can never embed an empty or error
// string in a bench report.
std::string SanitizeProvenance(std::string_view value);

// Identity of one trial in a sweep grid, handed to the trial function.
struct TrialContext {
  size_t index = 0;       // position in the grid (row-major), trial order key
  uint64_t base_seed = 0; // the sweep's base seed
  uint64_t seed = 0;      // SubstreamSeed(base_seed, index)
};

// Everything a sweep run measured, serializable as BENCH_<name>.json.
struct SweepReport {
  std::string name;                   // figure id, e.g. "fig5"
  // Provenance: which commit and build flavor produced these numbers.
  // SweepRunner fills them from $OMEGA_GIT_SHA / the build (see sweep.cc).
  std::string git_sha = "unknown";
  std::string build_type = "unknown";
  uint64_t base_seed = 0;
  size_t threads = 0;                 // worker threads actually used
  size_t trials = 0;
  double wall_seconds = 0.0;          // elapsed wall-clock for the whole sweep
  std::vector<double> trial_wall_seconds;  // per trial, trial-index order
  // Human-readable trial identities (sweep row descriptions), parallel to
  // trial_wall_seconds. Optional: emitted only when the bench filled it, and
  // then it must be exactly one label per trial (ToJson CHECK-fails on any
  // other count).
  std::vector<std::string> trial_labels;
  // Extra scalar metrics the bench wants tracked (merged stats, etc.),
  // emitted under "metrics" in insertion order.
  std::vector<std::pair<std::string, double>> metrics;

  // Sum of per-trial wall-clock: an estimate of the serial runtime of the
  // same sweep, measured from this run.
  double TrialSecondsTotal() const;
  // TrialSecondsTotal() / wall_seconds — the measured parallel speedup.
  double SpeedupVsSerial() const;

  void AddMetric(const std::string& key, double value);

  std::string ToJson() const;
  // Writes ToJson() to $OMEGA_BENCH_JSON_DIR/BENCH_<name>.json. Returns
  // nullopt when the variable is unset or empty (nothing is written), else
  // the path written, or an empty string if the file could not be opened.
  std::optional<std::string> WriteJson() const;
};

// Runs a grid of independent trials in parallel, deterministically.
class SweepRunner {
 public:
  // `base_seed` roots the per-trial substreams ($OMEGA_BENCH_SEED overrides
  // it). `max_threads` 0 means BenchThreads(): $OMEGA_BENCH_THREADS, else
  // hardware concurrency.
  explicit SweepRunner(std::string name, uint64_t base_seed = 1,
                       size_t max_threads = 0);

  // Invokes fn once per trial, sharded over worker threads. Results come
  // back in trial-index order; because each trial depends only on its
  // TrialContext, they are bit-identical for any thread count. Rethrows the
  // first trial exception (see ParallelFor). Each call resets the report's
  // timing section: one SweepRunner measures one grid.
  template <typename Fn>
  auto Run(size_t num_trials, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const TrialContext&>> {
    using Result = std::invoke_result_t<Fn&, const TrialContext&>;
    static_assert(std::is_default_constructible_v<Result>,
                  "trial results are collected into a pre-sized vector");
    Begin(num_trials);
    std::vector<Result> results(num_trials);
    ShardSlots<Result> result_slots(results);
    ShardSlots<double> wall_slots(report_.trial_wall_seconds);
    const auto sweep_start = std::chrono::steady_clock::now();
    ParallelFor(
        num_trials,
        [&](size_t i) {
          const auto trial_start = std::chrono::steady_clock::now();
          TrialContext ctx;
          ctx.index = i;
          ctx.base_seed = report_.base_seed;
          ctx.seed = SubstreamSeed(report_.base_seed, i);
          result_slots[i] = fn(static_cast<const TrialContext&>(ctx));
          wall_slots[i] =
              Elapsed(trial_start, std::chrono::steady_clock::now());
        },
        max_threads_);
    report_.wall_seconds =
        Elapsed(sweep_start, std::chrono::steady_clock::now());
    return results;
  }

  const SweepReport& report() const { return report_; }
  SweepReport& report() { return report_; }

  // Convenience: report().WriteJson().
  std::optional<std::string> WriteJson() const { return report_.WriteJson(); }

 private:
  void Begin(size_t num_trials);
  static double Elapsed(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  }

  size_t max_threads_;
  SweepReport report_;
};

}  // namespace omega

