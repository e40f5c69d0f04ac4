#include "src/omega/audit.h"

#include <gtest/gtest.h>

#include "src/omega/omega_scheduler.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

SimOptions ShortRun(uint64_t seed = 1) {
  SimOptions o;
  o.horizon = Duration::FromHours(4);
  o.seed = seed;
  return o;
}

std::vector<const QueueScheduler*> AllSchedulers(OmegaSimulation& sim) {
  std::vector<const QueueScheduler*> out;
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    out.push_back(&sim.batch_scheduler(i));
  }
  out.push_back(&sim.service_scheduler());
  return out;
}

bool HasFinding(const std::vector<std::string>& findings,
                const std::string& text) {
  for (const std::string& f : findings) {
    if (f.find(text) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(AuditTest, HealthySystemIsCompliant) {
  OmegaSimulation sim(TestCluster(), ShortRun(), SchedulerConfig{},
                      SchedulerConfig{}, 2);
  sim.Run();
  const std::vector<const QueueScheduler*> schedulers = AllSchedulers(sim);
  ASSERT_EQ(schedulers.size(), 3u);
  for (const QueueScheduler* s : schedulers) {
    SCOPED_TRACE(s->name());
    EXPECT_GT(s->metrics().JobsScheduled(JobType::kBatch) +
                  s->metrics().JobsScheduled(JobType::kService),
              0);
    EXPECT_TRUE(AuditMetrics(s->metrics(), sim.EndTime()).empty());
  }
}

TEST(AuditTest, SaturatedSchedulerViolatesSlo) {
  ClusterConfig cfg = TestCluster();
  cfg.batch.interarrival_mean_secs = 0.2;
  SchedulerConfig slow;
  slow.batch_times.t_job = Duration::FromSeconds(2.0);  // overload
  OmegaSimulation sim(cfg, ShortRun(2), slow, SchedulerConfig{});
  sim.Run();
  const std::vector<std::string> findings =
      AuditMetrics(sim.batch_scheduler(0).metrics(), sim.EndTime());
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].find("SLO"), std::string::npos);
}

TEST(AuditTest, AbandonmentFlagged) {
  ClusterConfig cfg = TestCluster(2);
  cfg.batch.tasks_per_job = std::make_shared<ConstantDist>(200.0);  // > cell
  cfg.batch.cpus_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.mem_gb_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.interarrival_mean_secs = 60.0;
  SchedulerConfig sched;
  sched.max_attempts = 3;
  sched.no_progress_backoff = Duration::FromSeconds(1);
  OmegaSimulation sim(cfg, ShortRun(3), sched, SchedulerConfig{});
  sim.Run();
  EXPECT_TRUE(HasFinding(
      AuditMetrics(sim.batch_scheduler(0).metrics(), sim.EndTime()),
      "abandonment"));
}

TEST(AuditTest, CustomPolicyThresholds) {
  OmegaSimulation sim(TestCluster(), ShortRun(5), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  AuditPolicy strict;
  strict.wait_slo_secs = 0.0;  // impossible SLO: any queueing violates
  bool violated = false;
  for (const QueueScheduler* s : AllSchedulers(sim)) {
    violated |= HasFinding(AuditMetrics(s->metrics(), sim.EndTime(), strict),
                           "wait-time SLO");
  }
  EXPECT_TRUE(violated);
}

}  // namespace
}  // namespace omega
