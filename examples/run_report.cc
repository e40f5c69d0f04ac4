// Run one (or all) of the four simulated architectures on a small cell and
// emit a unified RunReport as JSON — one object per architecture, one per
// line. Optionally records the full scheduling-lifecycle trace and writes
// both export formats next to the reports.
//
//   ./build/examples/run_report [monolithic|mesos|omega|hifi|all]
//                               [--trace-dir DIR]
//
// With --trace-dir, each architecture's run additionally writes
// DIR/<arch>.trace.json (Chrome trace-event format; open in Perfetto or
// chrome://tracing) and DIR/<arch>.jsonl (one event per line).
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/hifi/hifi_simulation.h"
#include "src/mesos/mesos_simulation.h"
#include "src/obs/run_report.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/monolithic.h"
#include "src/workload/cluster_config.h"

namespace {

using namespace omega;

struct Setup {
  ClusterConfig cluster;
  SimOptions options;
  SchedulerConfig batch;
  SchedulerConfig service;
};

Setup MakeSetup() {
  Setup s;
  s.cluster = TestCluster(64);
  s.options.horizon = Duration::FromHours(6);
  s.options.seed = 42;
  s.options.utilization_sample_interval = Duration::FromHours(1);
  s.batch.name = "batch";
  s.service.name = "service";
  s.service.service_times.t_job = Duration::FromSeconds(5);
  return s;
}

void ExportTrace(const TraceRecorder& trace, const std::string& dir,
                 const std::string& arch) {
  {
    std::ofstream os(dir + "/" + arch + ".trace.json");
    trace.ExportChromeTrace(os);
  }
  {
    std::ofstream os(dir + "/" + arch + ".jsonl");
    trace.ExportJsonLines(os);
  }
  std::cerr << arch << ": wrote " << trace.Retained() << " trace events to "
            << dir << "/" << arch << ".{trace.json,jsonl}\n";
}

void EmitReport(const RunReport& report) {
  report.ToJson(std::cout);
  std::cout << "\n";
}

void RunArch(const std::string& arch, const std::string& trace_dir) {
  Setup s = MakeSetup();
  std::unique_ptr<TraceRecorder> trace;
  if (!trace_dir.empty()) {
    trace = std::make_unique<TraceRecorder>();
  }

  if (arch == "monolithic") {
    SchedulerConfig single = s.service;
    single.name = "monolithic";
    single.batch_times = single.service_times;
    MonolithicSimulation sim(s.cluster, s.options, single);
    if (trace) {
      sim.SetTraceRecorder(trace.get());
    }
    sim.Run();
    EmitReport(BuildRunReport(arch, sim));
  } else if (arch == "mesos") {
    MesosSimulation sim(s.cluster, s.options, s.batch, s.service);
    if (trace) {
      sim.SetTraceRecorder(trace.get());
    }
    sim.Run();
    EmitReport(BuildRunReport(arch, sim));
  } else if (arch == "omega") {
    // Enable preemption so the report shows eviction-won placements accounted
    // separately from the optimistic-commit counters.
    s.batch.enable_preemption = true;
    s.service.enable_preemption = true;
    OmegaSimulation sim(s.cluster, s.options, s.batch, s.service,
                        /*num_batch_schedulers=*/2);
    if (trace) {
      sim.SetTraceRecorder(trace.get());
    }
    sim.Run();
    EmitReport(BuildRunReport(arch, sim));
  } else if (arch == "hifi") {
    auto sim = MakeHifiSimulation(s.cluster, s.options, s.batch, s.service);
    if (trace) {
      sim->SetTraceRecorder(trace.get());
    }
    sim->RunTrace(
        GenerateHifiTrace(s.cluster, s.options.horizon, s.options.seed));
    EmitReport(BuildRunReport(arch, *sim));
  } else {
    std::cerr << "unknown architecture: " << arch << "\n";
    std::exit(1);
  }

  if (trace) {
    ExportTrace(*trace, trace_dir, arch);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string arch = "all";
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace-dir" && i + 1 < argc) {
      trace_dir = argv[++i];
    } else {
      arch = a;
    }
  }
  if (arch == "all") {
    for (const char* a : {"monolithic", "mesos", "omega", "hifi"}) {
      RunArch(a, trace_dir);
    }
  } else {
    RunArch(arch, trace_dir);
  }
  return 0;
}
