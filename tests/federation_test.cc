// Multi-cell federation (DESIGN.md §13): determinism across sweep threads,
// gossip-staleness edge cases, and spillover end-to-end.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/sweep.h"
#include "src/federation/federation.h"
#include "src/obs/federation_report.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/cluster_config.h"
#include "tests/bitwise_eq.h"

namespace omega {
namespace {

SchedulerConfig Sched(const std::string& name) {
  SchedulerConfig c;
  c.name = name;
  return c;
}

SimOptions BaseOptions(uint64_t seed, double hours = 0.25) {
  SimOptions o;
  o.horizon = Duration::FromHours(hours);
  o.seed = seed;
  return o;
}

FederationOptions BaseFed(uint32_t cells = 4) {
  FederationOptions f;
  f.num_cells = cells;
  f.gossip_interval = Duration::FromSeconds(15);
  f.gossip_delay = Duration::FromSeconds(1);
  f.pending_timeout = Duration::FromSeconds(120);
  f.max_spills = 2;
  return f;
}

// Everything a federation run can surface, for bitwise comparison: front-door
// counters, fleet statistics, per-cell submissions/utilization, and the sum
// of every machine's commit seqnum in every cell (a fingerprint of the entire
// transaction history).
struct FedResult {
  int64_t routed = 0;
  int64_t scheduled = 0;
  int64_t lost = 0;
  int64_t spills = 0;
  int64_t timeouts = 0;
  int64_t rejections = 0;
  int64_t published = 0;
  int64_t delivered = 0;
  int64_t fallback = 0;
  int64_t submitted = 0;
  int64_t abandoned = 0;
  uint64_t seqnum_sum = 0;
  double staleness_mean = 0.0;
  double delivery_mean = 0.0;
  double tts_p50 = 0.0;
  double tts_p90 = 0.0;
  double spill_p90 = 0.0;
  double conflict = 0.0;
  double util_mean = 0.0;
  double skew = 0.0;
  std::vector<double> cell_cpu;
  std::vector<int64_t> cell_submitted;
};

FedResult RunFed(const SimOptions& options, const FederationOptions& fed_opts,
                 std::string* trace_bytes = nullptr) {
  FederationSim fed(TestCluster(24), options, Sched("batch"), Sched("service"),
                    fed_opts);
  TraceRecorder recorder;
  if (trace_bytes != nullptr) {
    fed.SetTraceRecorder(&recorder);
  }
  fed.Run();
  const FederationMetrics& m = fed.metrics();
  FedResult r;
  r.routed = m.jobs_routed;
  r.scheduled = m.jobs_fully_scheduled;
  r.lost = m.jobs_lost;
  r.spills = m.spills;
  r.timeouts = m.spill_timeouts;
  r.rejections = m.spill_rejections;
  r.published = m.summaries_published;
  r.delivered = m.summaries_delivered;
  r.fallback = m.hash_fallback_routes;
  r.submitted = fed.JobsSubmittedTotal();
  r.abandoned = fed.TotalJobsAbandoned();
  r.staleness_mean = m.routing_staleness_secs.mean();
  r.delivery_mean = m.delivery_latency_secs.mean();
  r.tts_p50 = m.time_to_scheduled_secs.Quantile(0.5);
  r.tts_p90 = m.time_to_scheduled_secs.Quantile(0.9);
  r.spill_p90 = m.spillover_latency_secs.Quantile(0.9);
  r.conflict = fed.FleetConflictFraction();
  r.util_mean = fed.MeanCellCpuUtilization();
  r.skew = fed.CpuUtilizationSkew();
  for (uint32_t i = 0; i < fed.num_cells(); ++i) {
    r.cell_cpu.push_back(fed.cell(i).cell().CpuUtilization());
    r.cell_submitted.push_back(fed.cell(i).JobsSubmittedTotal());
    for (MachineId mch = 0; mch < fed.cell(i).cell().NumMachines(); ++mch) {
      r.seqnum_sum += fed.cell(i).cell().machine(mch).seqnum;
    }
  }
  if (trace_bytes != nullptr) {
    std::ostringstream os;
    recorder.ExportJsonLines(os);
    *trace_bytes = os.str();
  }
  return r;
}

void ExpectSameResult(const FedResult& a, const FedResult& b) {
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.spills, b.spills);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.published, b.published);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.seqnum_sum, b.seqnum_sum);
  EXPECT_TRUE(SameBits(a.staleness_mean, b.staleness_mean));
  EXPECT_TRUE(SameBits(a.delivery_mean, b.delivery_mean));
  EXPECT_TRUE(SameBits(a.tts_p50, b.tts_p50));
  EXPECT_TRUE(SameBits(a.tts_p90, b.tts_p90));
  EXPECT_TRUE(SameBits(a.spill_p90, b.spill_p90));
  EXPECT_TRUE(SameBits(a.conflict, b.conflict));
  EXPECT_TRUE(SameBits(a.util_mean, b.util_mean));
  EXPECT_TRUE(SameBits(a.skew, b.skew));
  ASSERT_EQ(a.cell_cpu.size(), b.cell_cpu.size());
  for (size_t i = 0; i < a.cell_cpu.size(); ++i) {
    EXPECT_TRUE(SameBits(a.cell_cpu[i], b.cell_cpu[i])) << "cell " << i;
    EXPECT_EQ(a.cell_submitted[i], b.cell_submitted[i]) << "cell " << i;
  }
}

// Same seed => bit-identical federation results regardless of how the sweep
// shards trials over worker threads.
TEST(FederationDeterminismTest, BitIdenticalAcrossSweepThreads) {
  constexpr size_t kTrials = 3;
  auto run_sweep = [&](size_t threads) {
    SweepRunner runner("federation_det", /*base_seed=*/77, threads);
    return runner.Run(kTrials, [](const TrialContext& ctx) {
      return RunFed(BaseOptions(ctx.seed), BaseFed());
    });
  };
  const auto on1 = run_sweep(1);
  const auto on2 = run_sweep(2);
  const auto on8 = run_sweep(8);
  ASSERT_EQ(on1.size(), kTrials);
  for (size_t i = 0; i < kTrials; ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    ExpectSameResult(on1[i], on2[i]);
    ExpectSameResult(on1[i], on8[i]);
  }
  // The trials are genuinely different runs, not copies of one stream.
  EXPECT_NE(on1[0].seqnum_sum, on1[1].seqnum_sum);
}

// Gossip that is published but never delivered leaves the least-loaded router
// with no summaries, so every decision falls back to the job-id hash — which
// must be exactly the static-partitioning baseline, bit for bit.
TEST(FederationGossipTest, InfiniteDelayEqualsStaticPartitioning) {
  FederationOptions never = BaseFed();
  never.routing = FederationRouting::kLeastLoaded;
  never.gossip_delay = Duration::Max();
  FederationOptions static_hash = never;
  static_hash.routing = FederationRouting::kStaticHash;
  const FedResult a = RunFed(BaseOptions(9), never);
  const FedResult b = RunFed(BaseOptions(9), static_hash);
  ExpectSameResult(a, b);
  EXPECT_EQ(a.delivered, 0);
  EXPECT_GT(a.published, 0);
  EXPECT_EQ(a.fallback, a.routed + a.spills);
}

// Static routing never consults summaries, so the gossip configuration is
// observationally inert: cell outcomes are bit-identical whether summaries
// flow normally or never arrive. (Only the gossip counters may differ.)
TEST(FederationGossipTest, GossipInertUnderStaticRouting) {
  FederationOptions flowing = BaseFed();
  flowing.routing = FederationRouting::kStaticHash;
  FederationOptions starved = flowing;
  starved.gossip_delay = Duration::Max();
  FedResult a = RunFed(BaseOptions(13), flowing);
  FedResult b = RunFed(BaseOptions(13), starved);
  EXPECT_GT(a.delivered, 0);
  EXPECT_EQ(b.delivered, 0);
  // Neutralize the fields gossip is allowed to touch, then demand bitwise
  // equality of everything else.
  b.delivered = a.delivered;
  b.delivery_mean = a.delivery_mean;
  ExpectSameResult(a, b);
}

// Zero gossip delay means every summary arrives the instant it is published;
// zero interval means the router reads live state (staleness identically 0).
TEST(FederationGossipTest, ZeroDelayAndLiveSummariesAreFresh) {
  FederationOptions zero_delay = BaseFed();
  zero_delay.gossip_delay = Duration::Zero();
  const FedResult a = RunFed(BaseOptions(21), zero_delay);
  EXPECT_GT(a.delivered, 0);
  EXPECT_TRUE(SameBits(a.delivery_mean, 0.0));
  // Staleness at routing time is bounded by the publish cadence.
  EXPECT_LE(a.staleness_mean, zero_delay.gossip_interval.ToSeconds());

  FederationOptions live = BaseFed();
  live.gossip_interval = Duration::Zero();
  const FedResult b = RunFed(BaseOptions(21), live);
  EXPECT_EQ(b.published, 0);
  EXPECT_EQ(b.fallback, 0);  // live summaries are always available
  EXPECT_TRUE(SameBits(b.staleness_mean, 0.0));
}

// Admission rejection spills a job to the next cell; when every cell has
// rejected it, the job is lost. With admission_limit = 0 every cell rejects
// everything, so the arithmetic is exact.
TEST(FederationSpilloverTest, RejectionSpillsThenLoses) {
  SchedulerConfig closed_batch = Sched("batch");
  closed_batch.admission_limit = 0;
  SchedulerConfig closed_service = Sched("service");
  closed_service.admission_limit = 0;
  FederationOptions fed_opts = BaseFed(/*cells=*/2);
  fed_opts.max_spills = 4;  // more budget than cells: the mask must stop it
  SimOptions options = BaseOptions(3, /*hours=*/0.1);
  FederationSim fed(TestCluster(8), options, closed_batch, closed_service,
                    fed_opts);
  fed.Run();
  const FederationMetrics& m = fed.metrics();
  EXPECT_GT(m.jobs_routed, 0);
  EXPECT_GT(m.jobs_lost, 0);
  EXPECT_EQ(m.jobs_fully_scheduled, 0);
  EXPECT_EQ(m.spills, m.spill_rejections);
  EXPECT_EQ(m.spill_timeouts, 0);
  // With two cells the tried-mask caps every job at one spill even though
  // max_spills allows four; each lost job spilled exactly once. Jobs still in
  // transfer flight at the horizon account for the slack in both bounds.
  EXPECT_GE(m.spills, m.jobs_lost);
  EXPECT_LE(m.spills, m.jobs_routed);
}

// A cell that sits on a job past the pending timeout loses it to a sibling,
// and the job still completes somewhere: spilled work is not dropped.
TEST(FederationSpilloverTest, TimeoutSpillsCompleteElsewhere) {
  // Keep per-cell queues stable (utilization ~0.6) so timeouts come from
  // transient bursts, not permanent overload: a job that times out behind a
  // burst in one cell usually finds the other cell's queue short enough to
  // finish within the timeout, exercising the full spill-and-complete path.
  SchedulerConfig slow_batch = Sched("batch");
  slow_batch.batch_times.t_job = Duration::FromSeconds(5);
  FederationOptions fed_opts = BaseFed(/*cells=*/2);
  fed_opts.pending_timeout = Duration::FromSeconds(15);
  SimOptions options = BaseOptions(4, /*hours=*/0.5);
  options.batch_rate_multiplier = 0.25;
  options.service_rate_multiplier = 0.0;  // batch-only keeps this focused
  FederationSim fed(TestCluster(16), options, slow_batch, Sched("service"),
                    fed_opts);
  fed.Run();
  const FederationMetrics& m = fed.metrics();
  EXPECT_GT(m.spill_timeouts, 0);
  EXPECT_GT(m.jobs_fully_scheduled, 0);
  EXPECT_EQ(m.spills, m.spill_timeouts + m.spill_rejections);
  // Every fully-scheduled job records a time-to-scheduled sample; only the
  // ones that hopped cells also land in the spillover CDF.
  EXPECT_EQ(static_cast<int64_t>(m.time_to_scheduled_secs.count()),
            m.jobs_fully_scheduled);
  EXPECT_GT(m.spillover_latency_secs.count(), size_t{0});
  EXPECT_LE(m.spillover_latency_secs.count(),
            m.time_to_scheduled_secs.count());
}

// A watchdog armed for an incarnation that has since spilled must be a no-op.
// Every cell rejects every job synchronously at delivery, right after the
// delivery armed its watchdog; the pending timeout is shorter than the
// transfer delay, so each watchdog fires while the spilled clone is still in
// flight under a newer epoch. None of them may spill the job again.
TEST(FederationSpilloverTest, StaleWatchdogIsNoOpAfterSpill) {
  SchedulerConfig closed_batch = Sched("batch");
  closed_batch.admission_limit = 0;
  SchedulerConfig closed_service = Sched("service");
  closed_service.admission_limit = 0;
  FederationOptions fed_opts = BaseFed(/*cells=*/3);
  fed_opts.transfer_delay = Duration::FromSeconds(30);
  fed_opts.pending_timeout = Duration::FromSeconds(10);
  fed_opts.max_spills = 4;
  FederationSim fed(TestCluster(8), BaseOptions(7, /*hours=*/0.1),
                    closed_batch, closed_service, fed_opts);
  fed.Run();
  const FederationMetrics& m = fed.metrics();
  EXPECT_GT(m.spills, 0);
  EXPECT_GT(m.jobs_lost, 0);
  EXPECT_EQ(m.spill_timeouts, 0);
  EXPECT_EQ(m.spills, m.spill_rejections);
}

// A watchdog and a cell completion at the same instant: DeliverJob pushes the
// watchdog before injecting the job, so it precedes the incarnation's first
// attempt event in insertion order, runs first and withdraws the job; the
// completion of the withdrawn incarnation is then ignored. With a
// constant decision time equal to the pending timeout, no attempt can finish
// before its watchdog, so nothing is ever fully scheduled.
TEST(FederationSpilloverTest, WatchdogWinsSameInstantCompletion) {
  SchedulerConfig batch = Sched("batch");
  batch.batch_times.t_job = Duration::FromSeconds(10);
  batch.batch_times.t_task = Duration::Zero();
  FederationOptions fed_opts = BaseFed(/*cells=*/2);
  fed_opts.pending_timeout = Duration::FromSeconds(10);
  // Light batch-only load keeps schedulers idle, so attempts start at
  // delivery and finish exactly at the watchdog's instant.
  SimOptions options = BaseOptions(8, /*hours=*/0.1);
  options.batch_rate_multiplier = 0.1;
  options.service_rate_multiplier = 0.0;
  FederationSim fed(TestCluster(16), options, batch, Sched("service"),
                    fed_opts);
  fed.Run();
  const FederationMetrics& m = fed.metrics();
  EXPECT_GT(m.spill_timeouts, 0);
  EXPECT_EQ(m.jobs_fully_scheduled, 0);
}

// Multi-cell trials share one TraceRecorder: per-cell track names are
// namespaced, so two cells' schedulers never collide on one thread id.
TEST(FederationTraceTest, TracksAreNamespacedPerCell) {
  TraceRecorder recorder;
  FederationSim fed(TestCluster(16), BaseOptions(2, /*hours=*/0.05),
                    Sched("batch"), Sched("service"), BaseFed(/*cells=*/2));
  fed.SetTraceRecorder(&recorder);
  fed.Run();
  const std::vector<std::string>& names = recorder.track_names();
  auto has = [&](const std::string& name) {
    for (const std::string& n : names) {
      if (n == name) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has("cell0/batch-0"));
  EXPECT_TRUE(has("cell1/batch-0"));
  EXPECT_TRUE(has("cell0/cluster"));
  EXPECT_TRUE(has("cell1/cluster"));
  // The namespaced harness tracks keep cell events off the shared track 0.
  std::ostringstream os;
  recorder.ExportChromeTrace(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("cell0/"), std::string::npos);
  EXPECT_NE(trace.find("cell1/"), std::string::npos);
}

// The federation report nests one RunReport per cell under a fleet section
// and renders as one JSON object.
TEST(FederationReportTest, BuildsAndSerializes) {
  FederationSim fed(TestCluster(16), BaseOptions(6, /*hours=*/0.1),
                    Sched("batch"), Sched("service"), BaseFed(/*cells=*/3));
  fed.Run();
  const FederationReport report = BuildFederationReport(fed);
  EXPECT_EQ(report.fleet.num_cells, 3u);
  ASSERT_EQ(report.cells.size(), 3u);
  EXPECT_EQ(report.cells[0].architecture, "federation/cell0");
  EXPECT_EQ(report.fleet.jobs_routed, fed.metrics().jobs_routed);
  ASSERT_EQ(report.fleet.routed_per_cell.size(), 3u);
  int64_t routed = 0;
  for (int64_t per_cell : report.fleet.routed_per_cell) {
    routed += per_cell;
  }
  EXPECT_EQ(routed, fed.metrics().jobs_routed + fed.metrics().spills);
  std::ostringstream os;
  report.ToJson(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu_utilization_skew\""), std::string::npos);
}

}  // namespace
}  // namespace omega
