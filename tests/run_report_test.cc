#include "src/obs/run_report.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/hifi/hifi_simulation.h"
#include "src/mapreduce/mr_scheduler.h"
#include "src/mesos/mesos_simulation.h"
#include "src/trace/trace_recorder.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/monolithic.h"
#include "src/scheduler/partitioned.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

SimOptions ReportRun(uint64_t seed = 7) {
  SimOptions o;
  o.horizon = Duration::FromHours(2);
  o.seed = seed;
  o.utilization_sample_interval = Duration::FromMinutes(30);
  return o;
}

TEST(RunReportTest, MonolithicReport) {
  SchedulerConfig single;
  single.name = "mono";
  MonolithicSimulation sim(TestCluster(16), ReportRun(), single);
  sim.Run();
  const RunReport report = BuildRunReport("monolithic", sim);
  EXPECT_EQ(report.architecture, "monolithic");
  EXPECT_EQ(report.num_machines, 16u);
  EXPECT_DOUBLE_EQ(report.horizon_hours, 2.0);
  EXPECT_EQ(report.seed, 7u);
  EXPECT_EQ(report.jobs_submitted_batch + report.jobs_submitted_service,
            sim.JobsSubmittedTotal());
  ASSERT_EQ(report.schedulers.size(), 1u);
  const SchedulerReport& s = report.schedulers[0];
  EXPECT_EQ(s.name, "mono");
  EXPECT_GT(s.jobs_scheduled_batch, 0);
  EXPECT_EQ(s.total_attempts, sim.scheduler().metrics().TotalAttempts());
  EXPECT_EQ(s.tasks_accepted, sim.scheduler().metrics().TasksAccepted());
  // A single-path scheduler commits without contention.
  EXPECT_EQ(s.tasks_conflicted, 0);
  EXPECT_GE(s.mean_attempts_per_job, 1.0);
  EXPECT_FALSE(report.utilization_series.empty());
  EXPECT_GT(report.final_cpu_utilization, 0.0);
  // No recorder attached: the trace summary must say so.
  EXPECT_FALSE(report.trace.enabled);
  EXPECT_EQ(report.trace.events_total, 0);
}

TEST(RunReportTest, MesosReportHasBothFrameworks) {
  MesosSimulation sim(TestCluster(16), ReportRun(), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  const RunReport report = BuildRunReport("mesos", sim);
  ASSERT_EQ(report.schedulers.size(), 2u);
  EXPECT_EQ(report.schedulers[0].tasks_accepted,
            sim.batch_framework().metrics().TasksAccepted());
  EXPECT_EQ(report.schedulers[1].tasks_accepted,
            sim.service_framework().metrics().TasksAccepted());
}

TEST(RunReportTest, MesosReportCountsAllocatorWork) {
  MesosSimulation sim(TestCluster(64), ReportRun(), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  const RunReport report = BuildRunReport("mesos", sim);
  ASSERT_TRUE(report.offers.enabled);
  const OfferCounters& c = report.offers.counters;
  EXPECT_EQ(c.rounds, sim.allocator().counters().rounds);
  // Every attempt came from a round, and a round offers at most the cell.
  const int64_t attempts = sim.batch_framework().metrics().TotalAttempts() +
                           sim.service_framework().metrics().TotalAttempts();
  EXPECT_GE(c.rounds, attempts);
  EXPECT_GT(attempts, 0);
  EXPECT_LE(c.slices_offered, c.rounds * 64);
  EXPECT_GT(c.slices_consumed, 0);
  EXPECT_LE(c.slices_consumed, c.slices_offered);
  // The first round examines every machine; later ones only changed ones.
  EXPECT_GE(c.machines_examined, 64);
  EXPECT_LT(c.machines_examined, c.rounds * 64);
  EXPECT_GT(c.holds_transferred, 0);

  std::ostringstream os;
  report.ToJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"mesos\":{\"rounds\":" + std::to_string(c.rounds) +
                      ",\"slices_offered\":" +
                      std::to_string(c.slices_offered)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"holds_transferred\":" +
                      std::to_string(c.holds_transferred) + "}"),
            std::string::npos);
}

TEST(RunReportTest, NonMesosReportHasNoAllocatorSection) {
  SchedulerConfig single;
  single.name = "mono";
  MonolithicSimulation sim(TestCluster(16), ReportRun(), single);
  sim.Run();
  const RunReport report = BuildRunReport("monolithic", sim);
  EXPECT_FALSE(report.offers.enabled);
  std::ostringstream os;
  report.ToJson(os);
  EXPECT_EQ(os.str().find("\"mesos\""), std::string::npos);
}

TEST(RunReportTest, OmegaReportSeparatesPreemptionFromCommits) {
  // Saturate a small cell with long batch work so the preempting service
  // scheduler actually evicts; the report must keep those placements out of
  // tasks_accepted.
  ClusterConfig cfg = TestCluster(8);
  cfg.initial_utilization = 0.05;
  cfg.batch.interarrival_mean_secs = 2.0;
  cfg.batch.tasks_per_job = std::make_shared<ConstantDist>(8.0);
  cfg.batch.cpus_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.mem_gb_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.task_duration_secs = std::make_shared<ConstantDist>(36000.0);
  cfg.service.interarrival_mean_secs = 900.0;
  cfg.service.tasks_per_job = std::make_shared<ConstantDist>(4.0);
  cfg.service.cpus_per_task = std::make_shared<ConstantDist>(2.0);
  cfg.service.mem_gb_per_task = std::make_shared<ConstantDist>(2.0);
  cfg.service.task_duration_secs = std::make_shared<ConstantDist>(36000.0);

  SimOptions opts = ReportRun(1);
  SchedulerConfig batch;
  batch.max_attempts = 20;
  batch.no_progress_backoff = Duration::FromSeconds(5);
  SchedulerConfig service = batch;
  service.name = "service";
  service.enable_preemption = true;

  TraceRecorder trace;
  OmegaSimulation sim(cfg, opts, batch, service);
  sim.SetTraceRecorder(&trace);
  sim.Run();
  ASSERT_GT(sim.TasksPreempted(), 0);

  const RunReport report = BuildRunReport("omega", sim);
  EXPECT_EQ(report.tasks_preempted, sim.TasksPreempted());
  const SchedulerReport* svc = nullptr;
  for (const SchedulerReport& s : report.schedulers) {
    if (s.name == "service") {
      svc = &s;
    }
  }
  ASSERT_NE(svc, nullptr);
  EXPECT_GT(svc->preemption_tasks_placed, 0);
  EXPECT_EQ(svc->preemption_victims, sim.TasksPreempted());
  EXPECT_EQ(svc->tasks_accepted,
            sim.service_scheduler().metrics().TasksAccepted());

  // Trace summary carries the wrap-proof totals.
  EXPECT_TRUE(report.trace.enabled);
  EXPECT_EQ(report.trace.events_total, trace.TotalRecorded());
  int64_t preemption_count = -1;
  for (const auto& [name, count] : report.trace.counts) {
    if (name == "preemption") {
      preemption_count = count;
    }
  }
  EXPECT_EQ(preemption_count, sim.TasksPreempted());
}

TEST(RunReportTest, HifiReportBuilds) {
  ClusterConfig cfg = TestCluster(16);
  SimOptions opts = ReportRun(3);
  auto sim =
      MakeHifiSimulation(cfg, opts, SchedulerConfig{}, SchedulerConfig{});
  sim->RunTrace(GenerateHifiTrace(cfg, opts.horizon, opts.seed));
  const RunReport report = BuildRunReport("hifi", *sim);
  EXPECT_EQ(report.architecture, "hifi");
  EXPECT_GE(report.schedulers.size(), 2u);
  int64_t scheduled = 0;
  for (const SchedulerReport& s : report.schedulers) {
    scheduled += s.jobs_scheduled_batch + s.jobs_scheduled_service;
  }
  EXPECT_GT(scheduled, 0);
}

std::vector<std::string> SchedulerNames(const RunReport& report) {
  std::vector<std::string> names;
  for (const SchedulerReport& s : report.schedulers) {
    names.push_back(s.name);
  }
  return names;
}

// One builder covers every simulation: it reports each scheduler the
// simulation constructed, in construction order.
TEST(RunReportTest, ListsEveryScheduler) {
  SchedulerConfig batch;
  batch.name = "batch";
  SchedulerConfig service;
  service.name = "service";

  PartitionedSimulation partitioned(TestCluster(16), ReportRun(), batch,
                                    service);
  partitioned.Run();
  const RunReport p = BuildRunReport("partitioned", partitioned);
  EXPECT_EQ(SchedulerNames(p),
            (std::vector<std::string>{"batch", "service"}));
  EXPECT_EQ(p.schedulers[0].total_attempts,
            partitioned.batch_scheduler().metrics().TotalAttempts());

  MapReduceSimulation mapreduce(TestCluster(16), ReportRun(), batch, service,
                                MapReducePolicyOptions{});
  mapreduce.Run();
  const RunReport m = BuildRunReport("mapreduce", mapreduce);
  EXPECT_EQ(SchedulerNames(m),
            (std::vector<std::string>{"batch-0", "service", "mapreduce"}));
  EXPECT_EQ(m.schedulers[2].total_attempts,
            mapreduce.mr_scheduler().metrics().TotalAttempts());
}

TEST(RunReportTest, ToJsonEmitsWellFormedDocument) {
  SchedulerConfig single;
  single.name = "mono";
  MonolithicSimulation sim(TestCluster(16), ReportRun(), single);
  sim.Run();
  const RunReport report = BuildRunReport("monolithic", sim);
  std::ostringstream os;
  report.ToJson(os);
  const std::string json = os.str();

  // Structural sanity: one object, balanced braces/brackets, no trailing
  // comma before a closer (the classic hand-rolled-JSON bugs).
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0) << "unbalanced at byte " << i;
    } else if (c == ',') {
      size_t j = i + 1;
      while (j < json.size() && (json[j] == ' ' || json[j] == '\n')) {
        ++j;
      }
      ASSERT_TRUE(j < json.size() && json[j] != '}' && json[j] != ']')
          << "trailing comma at byte " << i;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  // Key content is present.
  EXPECT_NE(json.find("\"architecture\":\"monolithic\""), std::string::npos);
  EXPECT_NE(json.find("\"schedulers\""), std::string::npos);
  EXPECT_NE(json.find("\"preemption_tasks_placed\""), std::string::npos);
  EXPECT_NE(json.find("\"tasks_accepted\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization_series\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"mono\""), std::string::npos);
}

TEST(RunReportTest, ToJsonRendersNonFiniteValuesAsNull) {
  // Empty-Cdf percentiles and zero-duration rates surface as NaN/inf in the
  // report struct; the document must stay parseable JSON (null), never emit
  // the C library's "nan"/"inf" spellings.
  RunReport report;
  report.architecture = "synthetic";
  report.horizon_hours = std::numeric_limits<double>::quiet_NaN();
  report.final_cpu_utilization = std::numeric_limits<double>::infinity();
  report.final_mem_utilization = -std::numeric_limits<double>::infinity();
  SchedulerReport sched;
  sched.name = "s";
  sched.mean_wait_batch_secs = std::numeric_limits<double>::quiet_NaN();
  sched.p90_wait_service_secs = std::numeric_limits<double>::infinity();
  report.schedulers.push_back(sched);
  std::ostringstream os;
  report.ToJson(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"horizon_hours\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean_wait_batch_secs\":null"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace omega
