#include "src/trace/trace_recorder.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/mesos/mesos_simulation.h"
#include "src/omega/omega_scheduler.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

TEST(TraceRecorderTest, TrackZeroIsClusterAndNamesDedup) {
  TraceRecorder trace;
  ASSERT_EQ(trace.track_names().size(), 1u);
  EXPECT_EQ(trace.track_names()[0], "cluster");
  const uint16_t a = trace.RegisterTrack("batch-0");
  const uint16_t b = trace.RegisterTrack("service");
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(trace.RegisterTrack("batch-0"), a);
  EXPECT_EQ(trace.RegisterTrack("cluster"), 0);
}

TEST(TraceRecorderTest, CountsAndArgSums) {
  TraceRecorder trace;
  trace.TxnCommit(SimTime::FromSeconds(1), 0, 1, /*accepted=*/5,
                  /*conflicted=*/2);
  trace.TxnCommit(SimTime::FromSeconds(2), 0, 2, /*accepted=*/3,
                  /*conflicted=*/0);
  trace.TaskStart(SimTime::FromSeconds(3), 1, 0);
  EXPECT_EQ(trace.TotalRecorded(), 3);
  EXPECT_EQ(trace.CountOf(TraceEventType::kTxnCommit), 2);
  EXPECT_EQ(trace.SumArg0(TraceEventType::kTxnCommit), 8);
  EXPECT_EQ(trace.SumArg1(TraceEventType::kTxnCommit), 2);
  EXPECT_EQ(trace.CountOf(TraceEventType::kTaskStart), 1);
  EXPECT_EQ(trace.CountOf(TraceEventType::kGangAbort), 0);
}

TEST(TraceRecorderTest, RingWrapKeepsNewestAndCountsSurvive) {
  // Capacity is clamped up to one slab (4096 events).
  TraceRecorder trace(/*capacity_events=*/1);
  const int64_t n = 5000;
  for (int64_t i = 0; i < n; ++i) {
    trace.TaskStart(SimTime(i), static_cast<uint64_t>(i), 0);
  }
  EXPECT_EQ(trace.TotalRecorded(), n);
  EXPECT_EQ(trace.Retained(), TraceRecorder::kSlabSize);
  EXPECT_EQ(trace.Dropped(),
            n - static_cast<int64_t>(TraceRecorder::kSlabSize));
  // The wrap-proof per-type count still reflects every append.
  EXPECT_EQ(trace.CountOf(TraceEventType::kTaskStart), n);
  // Retained window is the newest events, visited oldest-first.
  std::vector<int64_t> times;
  trace.ForEachRetained(
      [&](const TraceEvent& e) { times.push_back(e.time_us); });
  ASSERT_EQ(times.size(), TraceRecorder::kSlabSize);
  EXPECT_EQ(times.front(), n - static_cast<int64_t>(TraceRecorder::kSlabSize));
  EXPECT_EQ(times.back(), n - 1);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i], times[i - 1] + 1);
  }
}

// Builds the small fixed event sequence used by the golden-export tests.
TraceRecorder GoldenEvents() {
  TraceRecorder trace;
  const uint16_t track = trace.RegisterTrack("sched-a");
  trace.JobSubmit(SimTime(1000000), /*job=*/7, /*job_type=*/0, /*num_tasks=*/3);
  trace.AttemptBegin(SimTime(2000000), track, 7, /*attempt=*/1,
                     /*tasks_in_attempt=*/3);
  trace.ClaimConflict(SimTime(2500000), track, 7, /*machine=*/4,
                      /*seqnum_at_placement=*/9, /*seqnum_at_commit=*/12);
  trace.AttemptEnd(SimTime(3000000), track, 7, /*tasks_placed=*/2,
                   /*had_conflict=*/true);
  return trace;
}

TEST(TraceRecorderTest, GoldenChromeTrace) {
  std::ostringstream os;
  GoldenEvents().ExportChromeTrace(os);
  const std::string expected =
      "{\"traceEvents\": [\n"
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"cluster\"}},\n"
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"name\": \"sched-a\"}},\n"
      "{\"pid\": 1, \"tid\": 0, \"ts\": 1000000, \"ph\": \"i\", \"s\": \"t\", "
      "\"name\": \"job_submit\", \"args\": {\"job\": 7, \"job_type\": "
      "\"batch\", \"num_tasks\": 3}},\n"
      "{\"pid\": 1, \"tid\": 1, \"ts\": 2000000, \"ph\": \"B\", \"name\": "
      "\"job 7\", \"args\": {\"job\": 7, \"attempt\": 1, "
      "\"tasks_in_attempt\": 3}},\n"
      "{\"pid\": 1, \"tid\": 1, \"ts\": 2500000, \"ph\": \"i\", \"s\": \"t\", "
      "\"name\": \"claim_conflict\", \"args\": {\"job\": 7, \"machine\": 4, "
      "\"seqnum_at_placement\": 9, \"seqnum_at_commit\": 12}},\n"
      "{\"pid\": 1, \"tid\": 1, \"ts\": 3000000, \"ph\": \"E\", \"name\": "
      "\"job 7\", \"args\": {\"job\": 7, \"tasks_placed\": 2, "
      "\"had_conflict\": true}}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(TraceRecorderTest, GoldenJsonLines) {
  std::ostringstream os;
  GoldenEvents().ExportJsonLines(os);
  const std::string expected =
      "{\"ts_us\": 1000000, \"type\": \"job_submit\", \"track\": \"cluster\", "
      "\"job\": 7, \"job_type\": \"batch\", \"num_tasks\": 3}\n"
      "{\"ts_us\": 2000000, \"type\": \"attempt_begin\", \"track\": "
      "\"sched-a\", \"job\": 7, \"attempt\": 1, \"tasks_in_attempt\": 3}\n"
      "{\"ts_us\": 2500000, \"type\": \"claim_conflict\", \"track\": "
      "\"sched-a\", \"job\": 7, \"machine\": 4, \"seqnum_at_placement\": 9, "
      "\"seqnum_at_commit\": 12}\n"
      "{\"ts_us\": 3000000, \"type\": \"attempt_end\", \"track\": "
      "\"sched-a\", \"job\": 7, \"tasks_placed\": 2, \"had_conflict\": "
      "true}\n";
  EXPECT_EQ(os.str(), expected);
}

// --- end-to-end: the event stream reconciles with SchedulerMetrics ---

// A small, contended cell: several Omega schedulers race on near-full
// machines, so commits conflict and the full lifecycle is exercised.
ClusterConfig ContendedCell() {
  ClusterConfig cfg = TestCluster(16);
  cfg.initial_utilization = 0.7;
  cfg.batch.interarrival_mean_secs = 0.5;
  return cfg;
}

SimOptions TraceRun(uint64_t seed = 11) {
  SimOptions o;
  o.horizon = Duration::FromHours(3);
  o.seed = seed;
  return o;
}

TEST(TraceRecorderTest, OmegaEventCountsReconcileWithMetrics) {
  SchedulerConfig batch;
  batch.batch_times.t_job = Duration::FromSeconds(2);
  SchedulerConfig service;
  TraceRecorder trace;
  OmegaSimulation sim(ContendedCell(), TraceRun(), batch, service,
                      /*num_batch_schedulers=*/3);
  sim.SetTraceRecorder(&trace);
  sim.Run();

  int64_t attempts = sim.service_scheduler().metrics().TotalAttempts();
  int64_t accepted = sim.service_scheduler().metrics().TasksAccepted();
  int64_t conflicted = sim.service_scheduler().metrics().TasksConflicted();
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    const SchedulerMetrics& m = sim.batch_scheduler(i).metrics();
    attempts += m.TotalAttempts();
    accepted += m.TasksAccepted();
    conflicted += m.TasksConflicted();
  }
  ASSERT_GT(conflicted, 0) << "config failed to generate commit conflicts";

  EXPECT_EQ(trace.CountOf(TraceEventType::kJobSubmit),
            sim.JobsSubmittedTotal());
  EXPECT_EQ(trace.CountOf(TraceEventType::kAttemptBegin), attempts);
  EXPECT_EQ(trace.CountOf(TraceEventType::kClaimConflict), conflicted);
  EXPECT_EQ(trace.SumArg0(TraceEventType::kTxnCommit), accepted);
  EXPECT_EQ(trace.SumArg1(TraceEventType::kTxnCommit), conflicted);
  // Every placement goes through StartTasks (no preemption configured), and
  // the state-store-side commit stream must agree with the scheduler-side one.
  EXPECT_EQ(trace.CountOf(TraceEventType::kTaskStart), accepted);
  EXPECT_EQ(trace.SumArg0(TraceEventType::kCellCommit), accepted);
  EXPECT_EQ(trace.SumArg1(TraceEventType::kCellCommit), conflicted);
  EXPECT_EQ(trace.CountOf(TraceEventType::kPreemption), 0);
  // One named track per scheduler plus the cluster track.
  EXPECT_EQ(trace.track_names().size(), 1u + sim.NumBatchSchedulers() + 1u);

  // Both exporters must render every retained event.
  std::ostringstream jsonl;
  trace.ExportJsonLines(jsonl);
  std::istringstream lines(jsonl.str());
  int64_t line_count = 0;
  std::string line;
  while (std::getline(lines, line)) {
    ++line_count;
  }
  EXPECT_EQ(line_count, static_cast<int64_t>(trace.Retained()));
}

TEST(TraceRecorderTest, MachineFailureEventsReconcile) {
  SimOptions o = TraceRun(13);
  o.machine_failure_rate_per_day = 4.0;
  o.machine_repair_time = Duration::FromMinutes(30);
  TraceRecorder trace;
  OmegaSimulation sim(ContendedCell(), o, SchedulerConfig{}, SchedulerConfig{});
  sim.SetTraceRecorder(&trace);
  sim.Run();
  ASSERT_GT(sim.MachineFailures(), 0);
  EXPECT_EQ(trace.CountOf(TraceEventType::kMachineFailure),
            sim.MachineFailures());
  EXPECT_EQ(trace.SumArg0(TraceEventType::kMachineFailure),
            sim.TasksKilledByFailures());
  EXPECT_LE(trace.CountOf(TraceEventType::kMachineRepair),
            sim.MachineFailures());
}

TEST(TraceRecorderTest, MesosEventCountsReconcileWithMetrics) {
  TraceRecorder trace;
  MesosSimulation sim(ContendedCell(), TraceRun(17), SchedulerConfig{},
                      SchedulerConfig{});
  sim.SetTraceRecorder(&trace);
  sim.Run();
  const int64_t attempts = sim.batch_framework().metrics().TotalAttempts() +
                           sim.service_framework().metrics().TotalAttempts();
  const int64_t accepted = sim.batch_framework().metrics().TasksAccepted() +
                           sim.service_framework().metrics().TasksAccepted();
  EXPECT_EQ(trace.CountOf(TraceEventType::kAttemptBegin), attempts);
  EXPECT_EQ(trace.SumArg0(TraceEventType::kTxnCommit), accepted);
  // Offers are pessimistic locks: nothing may conflict.
  EXPECT_EQ(trace.CountOf(TraceEventType::kClaimConflict), 0);
  EXPECT_EQ(trace.SumArg1(TraceEventType::kCellCommit), 0);
}

// The load-bearing property behind "off by default": attaching a recorder
// must not change simulation results at all.
TEST(TraceRecorderTest, AttachedRecorderIsBitIdentical) {
  SchedulerConfig batch;
  batch.batch_times.t_job = Duration::FromSeconds(2);
  OmegaSimulation plain(ContendedCell(), TraceRun(), batch, SchedulerConfig{},
                        /*num_batch_schedulers=*/3);
  plain.Run();

  TraceRecorder trace;
  OmegaSimulation traced(ContendedCell(), TraceRun(), batch, SchedulerConfig{},
                         /*num_batch_schedulers=*/3);
  traced.SetTraceRecorder(&trace);
  traced.Run();
  ASSERT_GT(trace.TotalRecorded(), 0);

  EXPECT_EQ(plain.JobsSubmittedTotal(), traced.JobsSubmittedTotal());
  for (uint32_t i = 0; i < plain.NumBatchSchedulers(); ++i) {
    const SchedulerMetrics& a = plain.batch_scheduler(i).metrics();
    const SchedulerMetrics& b = traced.batch_scheduler(i).metrics();
    EXPECT_EQ(a.TasksAccepted(), b.TasksAccepted());
    EXPECT_EQ(a.TasksConflicted(), b.TasksConflicted());
    EXPECT_EQ(a.TotalAttempts(), b.TotalAttempts());
    // Exact double equality, not approximate: bit-identical or bust.
    EXPECT_EQ(a.MeanWait(JobType::kBatch), b.MeanWait(JobType::kBatch));
    EXPECT_EQ(a.Busyness(plain.EndTime()).median,
              b.Busyness(traced.EndTime()).median);
  }
  EXPECT_EQ(plain.cell().TotalAllocated(), traced.cell().TotalAllocated());
}

}  // namespace
}  // namespace omega
