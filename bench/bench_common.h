// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "src/exp/experiment.h"
#include "src/exp/sweep.h"
#include "src/scheduler/config.h"
#include "src/workload/cluster_config.h"

namespace omega {

// Paper defaults: t_job = 0.1 s, t_task = 5 ms for both paths.
inline SchedulerConfig DefaultSchedulerConfig(const std::string& name) {
  SchedulerConfig c;
  c.name = name;
  return c;
}

// Scheduler config with a given service-path per-job decision time.
inline SchedulerConfig ServiceConfigWithTjob(double t_job_secs) {
  SchedulerConfig c = DefaultSchedulerConfig("service");
  c.service_times.t_job = Duration::FromSeconds(t_job_secs);
  return c;
}

inline void PrintBenchHeader(const std::string& id, const std::string& title,
                             const std::string& paper_expectation) {
  std::cout << "==========================================================\n"
            << id << ": " << title << "\n"
            << "paper: " << paper_expectation << "\n"
            << "==========================================================\n";
}

// The t_job(service) sweep used by Figures 5-7 and 12 (10 ms .. 100 s).
inline std::vector<double> TjobSweep(int points = 7) {
  return LogSpace(0.01, 100.0, points);
}

// Writes the sweep's BENCH_<figure>.json and prints a one-line timing
// summary (trials, threads, wall-clock, measured speedup vs serial).
inline void FinishSweep(const SweepRunner& runner) {
  const std::string path = runner.WriteJson();
  const SweepReport& rep = runner.report();
  std::cout << "\nsweep: " << rep.trials << " trials on " << rep.threads
            << " thread(s) in " << FormatValue(rep.wall_seconds)
            << " s (speedup vs serial: " << FormatValue(rep.SpeedupVsSerial())
            << "x); "
            << (path.empty() ? std::string("JSON write FAILED")
                             : "wrote " + path)
            << "\n";
}

}  // namespace omega

