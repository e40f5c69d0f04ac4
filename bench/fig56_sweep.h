// Shared sweep for Figures 5 and 6: monolithic single-path, monolithic
// multi-path and shared-state (Omega) schedulers on clusters A, B and C,
// varying t_job (single-path varies it for all jobs; the others for service
// jobs only). Runs on the deterministic parallel sweep engine; the caller
// owns the SweepRunner and decides what summary metrics go into its JSON.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/exp/sweep.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/monolithic.h"

namespace omega {

// Base seed of the Figure 5/6 sweep (fig5_wait_time prints both figures).
inline constexpr uint64_t kFig56BaseSeed = 1000;

struct SweepResult {
  std::string arch;
  std::string cluster;
  double t_job_secs = 0.0;
  double batch_wait = 0.0;
  double service_wait = 0.0;
  double batch_busy = 0.0;
  double batch_busy_mad = 0.0;
  double service_busy = 0.0;
  double service_busy_mad = 0.0;
  int64_t abandoned = 0;
};

// `tjob_points` sets the t_job grid resolution (7 reproduces the figures; the
// determinism test uses a coarser grid to stay fast).
inline std::vector<SweepResult> RunFig56Sweep(const Duration horizon,
                                              SweepRunner& runner,
                                              int tjob_points = 7) {
  struct Point {
    const char* arch;
    const char* cluster;
    double t_job;
  };
  std::vector<Point> points;
  for (const char* arch : {"mono-single", "mono-multi", "omega"}) {
    for (const char* cluster : {"A", "B", "C"}) {
      for (double t : TjobSweep(tjob_points)) {
        points.push_back({arch, cluster, t});
      }
    }
  }
  runner.report().AddMetric("sim_days", horizon.ToDays());
  std::vector<SweepResult> results =
      runner.Run(points.size(), [&](const TrialContext& ctx) {
    const Point& p = points[ctx.index];
    SimOptions opts;
    opts.horizon = horizon;
    opts.seed = ctx.seed;
    const ClusterConfig cfg = ClusterByName(p.cluster);
    SweepResult r;
    r.arch = p.arch;
    r.cluster = p.cluster;
    r.t_job_secs = p.t_job;
    const SimTime end = SimTime::Zero() + horizon;
    if (std::string(p.arch) == "omega") {
      OmegaSimulation sim(cfg, opts, DefaultSchedulerConfig("batch"),
                          ServiceConfigWithTjob(p.t_job));
      sim.Run();
      const auto& bm = sim.batch_scheduler(0).metrics();
      const auto& sm = sim.service_scheduler().metrics();
      r.batch_wait = bm.MeanWait(JobType::kBatch);
      r.service_wait = sm.MeanWait(JobType::kService);
      r.batch_busy = bm.Busyness(end).median;
      r.batch_busy_mad = bm.Busyness(end).mad;
      r.service_busy = sm.Busyness(end).median;
      r.service_busy_mad = sm.Busyness(end).mad;
      r.abandoned = sim.TotalJobsAbandoned();
    } else {
      SchedulerConfig sched = ServiceConfigWithTjob(p.t_job);
      if (std::string(p.arch) == "mono-single") {
        // Single code path: every job pays the same decision time.
        sched.batch_times = sched.service_times;
      }
      MonolithicSimulation sim(cfg, opts, sched);
      sim.Run();
      const auto& m = sim.scheduler().metrics();
      r.batch_wait = m.MeanWait(JobType::kBatch);
      r.service_wait = m.MeanWait(JobType::kService);
      // One scheduler serves both types: its busyness is reported in both
      // columns.
      r.batch_busy = m.Busyness(end).median;
      r.batch_busy_mad = m.Busyness(end).mad;
      r.service_busy = r.batch_busy;
      r.service_busy_mad = r.batch_busy_mad;
      r.abandoned = m.JobsAbandonedTotal();
    }
    return r;
  });
  // Per-trial attribution for BENCH JSON (after Run, which resets the labels):
  // label trial i with its grid point so trial_wall_seconds[i] can be read
  // without re-deriving the sweep order.
  for (const Point& p : points) {
    char label[64];
    std::snprintf(label, sizeof(label), "%s-%s-tjob%g", p.arch, p.cluster,
                  p.t_job);
    runner.report().trial_labels.emplace_back(label);
  }
  return results;
}

}  // namespace omega

