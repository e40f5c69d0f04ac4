// Figure 15: CDFs of potential per-job speedup for MapReduce jobs under the
// three resource policies (max-parallelism, relative-job-size, global-cap) on
// clusters A, C and D.
//
// Paper shape: 50-70% of MapReduce jobs benefit from acceleration; ~3-4x at
// the 80th percentile under max-parallelism; relative-job-size does nearly as
// well; global-cap only helps on the small, lightly utilized cluster D (the
// busier clusters sit above its 60% utilization threshold).
//
// Usage:
//   fig15_mapreduce_speedup                        clusters A, C, D, 0.5 days
//                                                  (OMEGA_BENCH_DAYS)
//   fig15_mapreduce_speedup --smoke-write <golden> regenerate the CI golden
//   fig15_mapreduce_speedup --smoke-check <golden> short run, bit-exact diff
//
// The smoke golden pins the MapReduce scheduler (§6): the three policies on
// clusters A and D. The smoke modes are the golden harness in bench_common.h.
#include <bit>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/stats.h"
#include "src/mapreduce/mr_scheduler.h"

using namespace omega;

namespace {

constexpr uint64_t kFig15BaseSeed = 15000;
constexpr double kSmokeHorizonDays = 0.05;

const std::vector<MapReducePolicy> kPolicies{MapReducePolicy::kMaxParallelism,
                                             MapReducePolicy::kRelativeJobSize,
                                             MapReducePolicy::kGlobalCap};

// One Fig. 15 trial: `cluster` under `policy`, run to `horizon`.
std::unique_ptr<MapReduceSimulation> RunTrial(const char* cluster,
                                              MapReducePolicy policy,
                                              uint64_t seed, Duration horizon) {
  SimOptions opts;
  opts.horizon = horizon;
  opts.seed = seed;
  MapReducePolicyOptions policy_options;
  policy_options.policy = policy;
  std::unique_ptr<MapReduceSimulation> sim =
      std::make_unique<MapReduceSimulation>(
          ClusterByName(cluster), opts, DefaultSchedulerConfig("batch"),
          DefaultSchedulerConfig("service"), policy_options);
  sim->Run();
  return sim;
}

int FullRun() {
  PrintBenchHeader("Figure 15", "MapReduce speedup CDFs per policy",
                   "50-70% of jobs speed up; ~3-4x at the 80th %ile for "
                   "max-parallelism; global-cap only helps on cluster D");
  const Duration horizon = BenchHorizon(0.5);
  const std::vector<const char*> clusters{"A", "C", "D"};
  struct Point {
    const char* cluster;
    MapReducePolicy policy;
  };
  std::vector<Point> points;
  for (const char* c : clusters) {
    for (MapReducePolicy p : kPolicies) {
      points.push_back({c, p});
    }
  }
  SweepRunner runner("fig15", kFig15BaseSeed);
  runner.report().AddMetric("sim_days", horizon.ToDays());
  const std::vector<Cdf> speedups =
      runner.Run(points.size(), [&](const TrialContext& ctx) {
        const Point& p = points[ctx.index];
        // Same workload for every policy on a cluster.
        const auto sim =
            RunTrial(p.cluster, p.policy,
                     ctx.base_seed + ctx.index / kPolicies.size(), horizon);
        Cdf cdf;
        for (const MapReduceOutcome& o : sim->mr_scheduler().outcomes()) {
          cdf.Add(o.predicted_speedup);
        }
        return cdf;
      });
  for (const Point& p : points) {
    runner.report().trial_labels.push_back(std::string(p.cluster) + "-" +
                                           MapReducePolicyName(p.policy));
  }

  for (const char* c : clusters) {
    std::cout << "\n--- cluster " << c << " ---\n";
    TablePrinter table({"policy", "jobs", "frac sped up (>1.05x)",
                        "median speedup", "80th %ile", "95th %ile"});
    for (size_t i = 0; i < points.size(); ++i) {
      if (std::string(points[i].cluster) != c) {
        continue;
      }
      const Cdf& cdf = speedups[i];
      const double frac_sped =
          cdf.empty() ? 0.0 : 1.0 - cdf.FractionAtOrBelow(1.05);
      table.AddRow({MapReducePolicyName(points[i].policy),
                    std::to_string(cdf.count()), FormatValue(frac_sped),
                    FormatValue(cdf.Quantile(0.5)),
                    FormatValue(cdf.Quantile(0.8)),
                    FormatValue(cdf.Quantile(0.95))});
    }
    table.Print(std::cout);
  }
  double jobs = 0.0;
  for (const Cdf& cdf : speedups) {
    jobs += static_cast<double>(cdf.count());
  }
  runner.report().AddMetric("mapreduce_jobs_total", jobs);
  FinishSweep(runner);
  return 0;
}

// One golden line per (cluster, policy): the outcome count, the granted
// workers, the summed predicted speedup and a hash of every outcome; then
// the mapreduce, batch and service waits and busyness as hex floats, their
// scheduled-job counts and the cell fingerprint.
std::string SmokeLine(const char* cluster, MapReducePolicy policy,
                      uint64_t seed) {
  const auto sim = RunTrial(cluster, policy, seed,
                            Duration::FromDays(kSmokeHorizonDays));
  const SimTime end = sim->EndTime();
  const std::vector<MapReduceOutcome>& outcomes =
      sim->mr_scheduler().outcomes();
  int64_t granted = 0;
  double speedup_sum = 0.0;
  uint64_t outcome_hash = kFnv1aBasis;
  for (const MapReduceOutcome& o : outcomes) {
    granted += o.granted_workers;
    speedup_sum += o.predicted_speedup;
    outcome_hash = Fnv1aMix(outcome_hash, o.job);
    outcome_hash = Fnv1aMix(outcome_hash,
                            static_cast<uint64_t>(o.requested_workers));
    outcome_hash =
        Fnv1aMix(outcome_hash, static_cast<uint64_t>(o.granted_workers));
    outcome_hash =
        Fnv1aMix(outcome_hash, std::bit_cast<uint64_t>(o.predicted_speedup));
  }
  const SchedulerMetrics& mm = sim->mr_scheduler().metrics();
  const SchedulerMetrics& bm = sim->batch_scheduler(0).metrics();
  const SchedulerMetrics& sm = sim->service_scheduler().metrics();
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "%s-%s %zu %lld %a %016llx %a %a %a %a %a %a %lld %lld %lld %016llx",
      cluster, MapReducePolicyName(policy), outcomes.size(),
      static_cast<long long>(granted), speedup_sum,
      static_cast<unsigned long long>(outcome_hash),
      mm.MeanWait(JobType::kBatch), bm.MeanWait(JobType::kBatch),
      sm.MeanWait(JobType::kService), mm.Busyness(end).median,
      bm.Busyness(end).median, sm.Busyness(end).median,
      static_cast<long long>(mm.JobsScheduled(JobType::kBatch)),
      static_cast<long long>(bm.JobsScheduled(JobType::kBatch)),
      static_cast<long long>(sm.JobsScheduled(JobType::kService)),
      static_cast<unsigned long long>(CellFingerprint(sim->cell())));
  return buf;
}

// Clusters A (busy: global-cap grants nothing) and D (lightly utilized) at
// the full run's seeds.
std::vector<std::string> RunSmoke() {
  std::vector<std::string> lines;
  for (const auto& [cluster, seed] :
       {std::pair{"A", kFig15BaseSeed}, std::pair{"D", kFig15BaseSeed + 2}}) {
    for (MapReducePolicy policy : kPolicies) {
      lines.push_back(SmokeLine(cluster, policy, seed));
    }
  }
  return lines;
}

SmokeGolden Golden() {
  std::ostringstream header;
  header << "# fig15_mapreduce_speedup smoke golden: the three policies on "
            "clusters A (seed "
         << kFig15BaseSeed << ") and D (seed " << kFig15BaseSeed + 2
         << "), horizon_days=" << kSmokeHorizonDays << "\n"
         << "# fields: cluster-policy outcomes granted_workers speedup_sum "
            "(hex) fnv1a(job,requested,granted,speedup of every outcome) "
            "mapreduce_wait batch_wait service_wait mapreduce_busy "
            "batch_busy service_busy (hex floats) mapreduce_scheduled "
            "batch_scheduled service_scheduled "
            "fnv1a(allocated,seqnum of every machine)\n";
  return SmokeGolden{"fig15_mapreduce_speedup", header.str(), RunSmoke};
}

}  // namespace

int main(int argc, char** argv) {
  return SmokeGoldenMain(argc, argv, Golden(), FullRun);
}
