// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "src/cluster/cell_state.h"
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

// --- bit-exact smoke goldens ---
//
// A smoke golden pins a short, fixed run of a bench as text lines with every
// double printed as a hex float (%a), which round-trips exactly, so string
// equality is bitwise equality. The golden file opens with '#' header lines
// that describe the run; checking skips them.
struct SmokeGolden {
  std::string bench;   // binary name; prefixes every message
  std::string header;  // the '#' lines, each ending in '\n'
  std::function<std::vector<std::string>()> run;
};

inline int WriteSmokeGolden(const SmokeGolden& golden,
                            const std::string& path) {
  const std::vector<std::string> lines = golden.run();
  std::ofstream out(path);
  if (!out) {
    std::cerr << golden.bench << ": cannot write " << path << "\n";
    return 1;
  }
  out << golden.header;
  for (const std::string& line : lines) {
    out << line << "\n";
  }
  std::cout << golden.bench << ": wrote " << lines.size() << " lines to "
            << path << "\n";
  return 0;
}

inline int CheckSmokeGolden(const SmokeGolden& golden,
                            const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << golden.bench << ": cannot read golden " << path << "\n";
    return 1;
  }
  std::vector<std::string> want;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      want.push_back(line);
    }
  }
  const std::vector<std::string> got = golden.run();
  int mismatches = 0;
  if (got.size() != want.size()) {
    std::cerr << golden.bench << ": line count mismatch: golden has "
              << want.size() << ", run produced " << got.size() << "\n";
    ++mismatches;
  }
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) {
      std::cerr << golden.bench << ": line " << i << " diverges\n  golden: "
                << want[i] << "\n  got:    " << got[i] << "\n";
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::cerr << golden.bench << ": FAILED (" << mismatches
              << " mismatch(es)); if the change is intentional, regenerate "
                 "with --smoke-write\n";
    return 1;
  }
  std::cout << golden.bench << ": OK (" << n << " lines bit-identical)\n";
  return 0;
}

// FNV-1a over every machine's allocation and sequence number, for a golden
// line: aggregate metrics do not see where tasks were placed; this does.
inline uint64_t CellFingerprint(const CellState& cell) {
  auto mix = [](uint64_t h, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
    return h;
  };
  uint64_t h = 0xcbf29ce484222325ULL;
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    const Resources allocated = cell.Allocated(m);
    h = mix(h, std::bit_cast<uint64_t>(allocated.cpus));
    h = mix(h, std::bit_cast<uint64_t>(allocated.mem_gb));
    h = mix(h, cell.Seqnum(m));
  }
  return h;
}

// main() of a bench with a smoke golden:
//   <bench>                          full_run(); a usage error if it is null
//   <bench> --smoke-write <golden>   regenerate the golden file
//   <bench> --smoke-check <golden>   short run, bit-exact diff vs the golden;
//                                    non-zero exit on any mismatch
inline int SmokeGoldenMain(int argc, char** argv, const SmokeGolden& golden,
                           const std::function<int()>& full_run) {
  if (argc == 3 && std::strcmp(argv[1], "--smoke-write") == 0) {
    return WriteSmokeGolden(golden, argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--smoke-check") == 0) {
    return CheckSmokeGolden(golden, argv[2]);
  }
  if (argc == 1 && full_run != nullptr) {
    return full_run();
  }
  std::cerr << "usage: " << golden.bench
            << (full_run != nullptr ? " [--smoke-write|--smoke-check "
                                      "<golden-file>]\n"
                                    : " --smoke-write|--smoke-check "
                                      "<golden-file>\n");
  return 2;
}

}  // namespace omega

