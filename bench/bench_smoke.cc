// CI bench smoke: a small Figure-5 sweep (3 t_job points per arch/cluster,
// short horizon) whose per-trial metrics are diffed bit-exactly against a
// checked-in golden. This catches two regressions the unit tests cannot:
//  - nondeterminism that only shows up in the Release build the figures are
//    produced with (the sweep engine promises bit-identical results for any
//    thread count);
//  - silent drift of the figure pipeline itself (bench_common defaults,
//    sweep wiring) between bench regenerations.
//
// Usage:
//   bench_smoke --write <golden>   regenerate the golden file
//   bench_smoke --check <golden>   run and diff; non-zero exit on mismatch
//
// Golden values are serialized as hex floats (%a), which round-trip doubles
// exactly; the comparison is string equality, i.e. bitwise.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/fig56_sweep.h"

namespace omega {
namespace {

constexpr double kSmokeHorizonDays = 0.01;
constexpr int kSmokeTjobPoints = 3;

std::string FormatTrial(const SweepResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%s %s %a %a %a %a %a %a %a %lld",
                r.arch.c_str(), r.cluster.c_str(), r.t_job_secs, r.batch_wait,
                r.service_wait, r.batch_busy, r.batch_busy_mad, r.service_busy,
                r.service_busy_mad, static_cast<long long>(r.abandoned));
  return buf;
}

std::vector<std::string> RunSmokeSweep() {
  SweepRunner runner("smoke", kFig56BaseSeed);
  const std::vector<SweepResult> results = RunFig56Sweep(
      Duration::FromDays(kSmokeHorizonDays), runner, kSmokeTjobPoints);
  std::vector<std::string> lines;
  lines.reserve(results.size());
  for (const SweepResult& r : results) {
    lines.push_back(FormatTrial(r));
  }
  std::cout << "bench_smoke: " << runner.report().trials << " trials on "
            << runner.report().threads << " thread(s) in "
            << runner.report().wall_seconds << " s\n";
  return lines;
}

int Write(const std::string& path) {
  const std::vector<std::string> lines = RunSmokeSweep();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_smoke: cannot write " << path << "\n";
    return 1;
  }
  out << "# bench_smoke golden: fig5 sweep, horizon_days="
      << kSmokeHorizonDays << " tjob_points=" << kSmokeTjobPoints
      << " base_seed=" << kFig56BaseSeed << "\n"
      << "# fields: arch cluster t_job batch_wait service_wait batch_busy "
         "batch_busy_mad service_busy service_busy_mad abandoned (hex floats)\n";
  for (const std::string& line : lines) {
    out << line << "\n";
  }
  std::cout << "bench_smoke: wrote " << lines.size() << " trials to " << path
            << "\n";
  return 0;
}

int Check(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_smoke: cannot read golden " << path << "\n";
    return 1;
  }
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      golden.push_back(line);
    }
  }
  const std::vector<std::string> got = RunSmokeSweep();
  int mismatches = 0;
  if (got.size() != golden.size()) {
    std::cerr << "bench_smoke: trial count mismatch: golden has "
              << golden.size() << ", run produced " << got.size() << "\n";
    ++mismatches;
  }
  const size_t n = std::min(got.size(), golden.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != golden[i]) {
      std::cerr << "bench_smoke: trial " << i << " diverges\n  golden: "
                << golden[i] << "\n  got:    " << got[i] << "\n";
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::cerr << "bench_smoke: FAILED (" << mismatches
              << " mismatch(es)); if the change is intentional, regenerate "
                 "with --write\n";
    return 1;
  }
  std::cout << "bench_smoke: OK (" << n << " trials bit-identical)\n";
  return 0;
}

}  // namespace
}  // namespace omega

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--write") == 0) {
    return omega::Write(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--check") == 0) {
    return omega::Check(argv[2]);
  }
  std::cerr << "usage: bench_smoke --write|--check <golden-file>\n";
  return 2;
}
