// Ablations for the design choices called out in DESIGN.md §5 (beyond the
// paper's own Figure 14 ablation of detection granularity / commit mode):
//
//  1. Placement algorithm: randomized first fit (spreads claims) vs the
//     scoring best-fit placer (concentrates them) — conflict rates under
//     identical decision times.
//  2. Statically partitioned vs shared cell: fragmentation cost (§3.2).
//  3. Priority preemption on/off for the service scheduler on a packed cell.
//
// Usage:
//   ablation_design_choices                        the three ablation tables
//   ablation_design_choices --smoke-write <golden> regenerate the CI golden
//   ablation_design_choices --smoke-check <golden> short run, bit-exact diff
//
// The smoke golden pins the Omega paths that kill running tasks: ablation
// 3's cell with preemption off and on, and an Omega cell with machine
// failures. The smoke modes are the golden harness in bench_common.h.
#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench/bench_common.h"
#include "src/hifi/scoring_placer.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/monolithic.h"
#include "src/scheduler/partitioned.h"

using namespace omega;

namespace {

int64_t TotalConflicts(OmegaSimulation& sim) {
  int64_t c = sim.service_scheduler().metrics().TasksConflicted();
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    c += sim.batch_scheduler(i).metrics().TasksConflicted();
  }
  return c;
}

void PlacementAblation() {
  std::cout
      << "\n--- ablation 1: randomized first fit vs scoring best-fit ---\n";
  ClusterConfig cfg = TestCluster(128);
  cfg.batch.interarrival_mean_secs = 0.5;
  cfg.service.interarrival_mean_secs = 20.0;
  SchedulerConfig sched;
  sched.batch_times.t_job = Duration::FromSeconds(0.5);
  sched.service_times.t_job = Duration::FromSeconds(5.0);
  SimOptions opts;
  opts.horizon = BenchHorizon(0.25);
  opts.seed = 21;

  TablePrinter table({"placer", "conflicted task claims", "svc conflict frac"});
  {
    OmegaSimulation sim(cfg, opts, sched, sched);  // randomized first fit
    sim.Run();
    table.AddRow({"randomized first fit", std::to_string(TotalConflicts(sim)),
                  FormatValue(sim.service_scheduler()
                                  .metrics()
                                  .ConflictFraction(sim.EndTime())
                                  .mean)});
  }
  {
    OmegaSimulation sim(cfg, opts, sched, sched, 1, {}, [] {
      return std::make_unique<ScoringPlacer>();
    });
    sim.cell().EnableAvailabilityIndex();
    sim.Run();
    table.AddRow({"scoring best-fit", std::to_string(TotalConflicts(sim)),
                  FormatValue(sim.service_scheduler()
                                  .metrics()
                                  .ConflictFraction(sim.EndTime())
                                  .mean)});
  }
  table.Print(std::cout);
  std::cout << "best-fit concentrates schedulers onto the same machines,\n"
               "which is why the high-fidelity simulator sees more "
               "interference (sec. 5).\n";
}

void PartitionAblation() {
  std::cout << "\n--- ablation 2: statically partitioned vs shared cell ---\n";
  ClusterConfig cfg = TestCluster(64);
  cfg.initial_utilization = 0.05;
  cfg.batch.interarrival_mean_secs = 0.4;
  cfg.batch.task_duration_secs = std::make_shared<ConstantDist>(600.0);
  SchedulerConfig sched;
  sched.max_attempts = 100;
  SimOptions opts;
  opts.horizon = BenchHorizon(0.25);
  opts.seed = 22;

  TablePrinter table({"design", "batch jobs scheduled", "batch wait [s]",
                      "batch part util", "service part util"});
  {
    PartitionedSimulation sim(cfg, opts, sched, sched, /*batch_fraction=*/0.25);
    sim.Run();
    table.AddRow(
        {"partitioned 25/75",
         std::to_string(
             sim.batch_scheduler().metrics().JobsScheduled(JobType::kBatch)),
         FormatValue(sim.batch_scheduler().metrics().MeanWait(JobType::kBatch)),
         FormatValue(sim.PartitionCpuUtilization(sim.batch_range())),
         FormatValue(sim.PartitionCpuUtilization(sim.service_range()))});
  }
  {
    MonolithicSimulation sim(cfg, opts, sched);
    sim.Run();
    table.AddRow(
        {"shared (monolithic)",
         std::to_string(
             sim.scheduler().metrics().JobsScheduled(JobType::kBatch)),
         FormatValue(sim.scheduler().metrics().MeanWait(JobType::kBatch)),
         FormatValue(sim.cell().CpuUtilization()),
         FormatValue(sim.cell().CpuUtilization())});
  }
  table.Print(std::cout);
  std::cout << "fixed partitions fragment the cell: the loaded partition "
               "starves while the other idles (sec. 3.2).\n";
}

// Ablation 3's cell: long 8-task batch jobs pack 16 machines, and service
// jobs arrive too rarely to hold any room of their own.
ClusterConfig PackedCell() {
  ClusterConfig cfg = TestCluster(16);
  cfg.initial_utilization = 0.05;
  cfg.batch.interarrival_mean_secs = 1.0;
  cfg.batch.tasks_per_job = std::make_shared<ConstantDist>(8.0);
  cfg.batch.cpus_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.mem_gb_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.task_duration_secs = std::make_shared<ConstantDist>(36000.0);
  cfg.service.interarrival_mean_secs = 300.0;
  cfg.service.cpus_per_task = std::make_shared<ConstantDist>(2.0);
  cfg.service.mem_gb_per_task = std::make_shared<ConstantDist>(2.0);
  return cfg;
}

void PreemptionAblation() {
  std::cout << "\n--- ablation 3: service preemption on a packed cell ---\n";
  const ClusterConfig cfg = PackedCell();
  SimOptions opts;
  opts.horizon = BenchHorizon(0.25);
  opts.seed = 23;

  SchedulerConfig batch;
  batch.max_attempts = 20;
  TablePrinter table({"service preemption", "service scheduled",
                      "service abandoned", "tasks preempted"});
  for (bool preempt : {false, true}) {
    SchedulerConfig service = batch;
    service.enable_preemption = preempt;
    OmegaSimulation sim(cfg, opts, batch, service);
    sim.Run();
    table.AddRow(
        {preempt ? "on" : "off",
         std::to_string(sim.service_scheduler().metrics().JobsScheduled(
             JobType::kService)),
         std::to_string(sim.service_scheduler().metrics().JobsAbandonedTotal()),
         std::to_string(sim.TasksPreempted())});
  }
  table.Print(std::cout);
  std::cout << "preemption lets high-precedence work claim resources other\n"
               "schedulers already acquired (sec. 3.4), at the cost of the\n"
               "victims' lost work.\n";
}

int FullRun() {
  PrintBenchHeader("Ablations", "design-choice ablations (DESIGN.md sec. 5)",
                   "placement spread vs packing; static partitioning cost; "
                   "priority preemption");
  PlacementAblation();
  PartitionAblation();
  PreemptionAblation();
  return 0;
}

constexpr double kSmokeHorizonDays = 0.05;

// One golden line per Omega run: waits and busyness as hex floats, then
// scheduled, abandoned, preempted and failure-killed counts and the cell
// fingerprint.
std::string SmokeLine(const char* label, OmegaSimulation& sim) {
  sim.Run();
  const SimTime end = sim.EndTime();
  const SchedulerMetrics& bm = sim.batch_scheduler(0).metrics();
  const SchedulerMetrics& sm = sim.service_scheduler().metrics();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf), "%s %a %a %a %a %lld %lld %lld %lld %lld %016llx",
      label, bm.MeanWait(JobType::kBatch), sm.MeanWait(JobType::kService),
      bm.Busyness(end).median, sm.Busyness(end).median,
      static_cast<long long>(bm.JobsScheduled(JobType::kBatch)),
      static_cast<long long>(sm.JobsScheduled(JobType::kService)),
      static_cast<long long>(sim.TotalJobsAbandoned()),
      static_cast<long long>(sim.TasksPreempted()),
      static_cast<long long>(sim.TasksKilledByFailures()),
      static_cast<unsigned long long>(CellFingerprint(sim.cell())));
  return buf;
}

std::vector<std::string> RunSmoke() {
  std::vector<std::string> lines;
  SimOptions opts;
  opts.horizon = Duration::FromDays(kSmokeHorizonDays);
  opts.seed = 23;
  SchedulerConfig batch;
  batch.max_attempts = 20;
  for (bool preempt : {false, true}) {
    SchedulerConfig service = batch;
    service.enable_preemption = preempt;
    OmegaSimulation sim(PackedCell(), opts, batch, service);
    lines.push_back(SmokeLine(preempt ? "preempt-on" : "preempt-off", sim));
  }
  // Failures kill tasks of every kind: initial fill, batch and service.
  opts.seed = 24;
  opts.machine_failure_rate_per_day = 5.0;
  opts.machine_repair_time = Duration::FromMinutes(5);
  SchedulerConfig sched;
  OmegaSimulation sim(TestCluster(64), opts, sched, sched);
  lines.push_back(SmokeLine("failures", sim));
  return lines;
}

SmokeGolden Golden() {
  std::ostringstream header;
  header << "# ablation_design_choices smoke golden: Omega preemption and "
            "machine failures, horizon_days="
         << kSmokeHorizonDays << " seeds 23 (preempt-*) and 24 (failures)\n"
         << "# fields: label batch_wait service_wait batch_busy service_busy "
            "(hex floats) batch_scheduled service_scheduled abandoned "
            "preempted killed_by_failures "
            "fnv1a(allocated,seqnum of every machine)\n";
  return SmokeGolden{"ablation_design_choices", header.str(), RunSmoke};
}

}  // namespace

int main(int argc, char** argv) {
  return SmokeGoldenMain(argc, argv, Golden(), FullRun);
}
