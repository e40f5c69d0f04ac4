// Cohort task lifecycles (DESIGN.md §10).
//
// Unit tests for the cohort lifecycle edge cases (member kills, full
// eviction, callback order) and the TaskRegistry slab against a naive
// reference model. The randomized differentials against the per-task
// reference model live in reference_diff_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/cluster/task_registry.h"
#include "src/common/random.h"
#include "src/scheduler/cluster_simulation.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

// ---------------------------------------------------------------------------
// Harness-level cohort lifecycle edge cases.
// ---------------------------------------------------------------------------

// Kills tasks by hand, so it keeps the running-task registry.
class HarnessSim final : public ClusterSimulation {
 public:
  HarnessSim(const ClusterConfig& config, const SimOptions& options)
      : ClusterSimulation(config, options) {
    TrackRunningTasks();
  }
  using ClusterSimulation::FailMachine;
  void SubmitJob(const JobPtr&) override {}
};

SimOptions TrackedOpts() {
  SimOptions o;
  o.horizon = Duration::FromHours(2);
  return o;
}

Job UniformJob(uint32_t num_tasks, double secs = 600.0) {
  Job j;
  j.id = 42;
  j.num_tasks = num_tasks;
  j.task_duration = Duration::FromSeconds(secs);
  j.task_resources = Resources{1.0, 2.0};
  j.precedence = 0;
  return j;
}

TEST(CohortLifecycleTest, SingleTaskCohortRunsToCompletion) {
  HarnessSim sim(TestCluster(8), TrackedOpts());
  const Job job = UniformJob(1);
  sim.cell().Allocate(3, job.task_resources);
  const std::vector<TaskClaim> claims{{3, job.task_resources, 0}};
  sim.StartTasks(job, claims);
  EXPECT_EQ(sim.task_registry().NumRunning(), 1u);
  sim.sim().RunUntil(SimTime::Zero() + Duration::FromSeconds(601));
  EXPECT_EQ(sim.task_registry().NumRunning(), 0u);
  EXPECT_EQ(sim.cell().machine(3).allocated, Resources::Zero());
  // One allocate + one free.
  EXPECT_EQ(sim.cell().machine(3).seqnum, 2u);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(CohortLifecycleTest, CohortEndFreesAggregatedResourcesPerMachine) {
  HarnessSim sim(TestCluster(8), TrackedOpts());
  const Job job = UniformJob(5);
  // Three tasks stacked on machine 1, two on machine 4.
  std::vector<TaskClaim> claims;
  for (const MachineId m : {1u, 1u, 1u, 4u, 4u}) {
    sim.cell().Allocate(m, job.task_resources);
    claims.push_back(TaskClaim{m, job.task_resources, 0});
  }
  sim.StartTasks(job, claims);
  EXPECT_EQ(sim.task_registry().NumRunningOn(1), 3u);
  EXPECT_EQ(sim.task_registry().NumRunningOn(4), 2u);
  sim.sim().RunUntil(SimTime::Zero() + Duration::FromSeconds(601));
  EXPECT_EQ(sim.task_registry().NumRunning(), 0u);
  EXPECT_EQ(sim.cell().machine(1).allocated, Resources::Zero());
  EXPECT_EQ(sim.cell().machine(4).allocated, Resources::Zero());
  // 3 allocs + 3 frees on machine 1, 2 + 2 on machine 4.
  EXPECT_EQ(sim.cell().machine(1).seqnum, 6u);
  EXPECT_EQ(sim.cell().machine(4).seqnum, 4u);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(CohortLifecycleTest, MemberKilledByFailureShrinksPendingFree) {
  // A machine failure kills two of five cohort members mid-flight; the
  // survivors' end event must free exactly the survivors' resources.
  HarnessSim sim(TestCluster(8), TrackedOpts());
  const Job job = UniformJob(5);
  std::vector<TaskClaim> claims;
  for (const MachineId m : {2u, 2u, 5u, 5u, 5u}) {
    sim.cell().Allocate(m, job.task_resources);
    claims.push_back(TaskClaim{m, job.task_resources, 0});
  }
  sim.StartTasks(job, claims);
  // Fail machine 2 halfway through the tasks' lifetime.
  sim.sim().ScheduleAt(SimTime::Zero() + Duration::FromSeconds(300),
                       [&sim] { sim.FailMachine(2); });
  sim.sim().RunUntil(SimTime::Zero() + Duration::FromSeconds(601));
  EXPECT_EQ(sim.TasksKilledByFailures(), 2);
  EXPECT_EQ(sim.task_registry().NumRunning(), 0u);
  // The failed machine holds only its downtime reservation; the survivor
  // machine is fully freed.
  EXPECT_EQ(sim.cell().machine(5).allocated, Resources::Zero());
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(CohortLifecycleTest, FullyEvictedCohortEndEventFreesNothing) {
  HarnessSim sim(TestCluster(8), TrackedOpts());
  const Job job = UniformJob(3);
  std::vector<TaskClaim> claims;
  for (const MachineId m : {6u, 6u, 6u}) {
    sim.cell().Allocate(m, job.task_resources);
    claims.push_back(TaskClaim{m, job.task_resources, 0});
  }
  sim.StartTasks(job, claims);
  sim.sim().ScheduleAt(SimTime::Zero() + Duration::FromSeconds(100),
                       [&sim] { sim.FailMachine(6); });
  // Run well past the cohort's end time: the emptied cohort's end event still
  // fires and must not double-free (Free would CHECK-fail on negative
  // allocation).
  sim.sim().RunUntil(SimTime::Zero() + Duration::FromSeconds(2000));
  EXPECT_EQ(sim.TasksKilledByFailures(), 3);
  EXPECT_EQ(sim.task_registry().NumRunning(), 0u);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(CohortLifecycleTest, OnTaskEndRunsPerMemberInClaimOrder) {
  HarnessSim sim(TestCluster(8), TrackedOpts());
  const Job job = UniformJob(4);
  std::vector<TaskClaim> claims;
  for (const MachineId m : {7u, 0u, 7u, 3u}) {
    sim.cell().Allocate(m, job.task_resources);
    claims.push_back(TaskClaim{m, job.task_resources, 0});
  }
  std::vector<MachineId> seen;
  sim.StartTasks(job, claims,
                 [&seen](const TaskClaim& c) { seen.push_back(c.machine); });
  sim.sim().RunUntil(SimTime::Zero() + Duration::FromSeconds(601));
  EXPECT_EQ(seen, (std::vector<MachineId>{7u, 0u, 7u, 3u}));
}

// ---------------------------------------------------------------------------
// TaskRegistry slab vs. a naive reference model under randomized churn.
// ---------------------------------------------------------------------------

// Reference model: hash maps plus the same append/swap-remove list evolution
// the registry promises (victim selection order is observable, so the slab
// must reproduce it exactly).
class ReferenceRegistry {
 public:
  uint64_t Add(MachineId machine, const Resources& resources,
               int32_t precedence) {
    const uint64_t id = next_id_++;
    tasks_.emplace(id, RunningTask{id, machine, resources, precedence, 0});
    by_machine_[machine].push_back(id);
    return id;
  }

  void Remove(uint64_t task_id) {
    auto it = tasks_.find(task_id);
    ASSERT_TRUE(it != tasks_.end());
    auto& list = by_machine_[it->second.machine];
    auto pos = std::find(list.begin(), list.end(), task_id);
    ASSERT_TRUE(pos != list.end());
    *pos = list.back();
    list.pop_back();
    tasks_.erase(it);
  }

  std::vector<uint64_t> IdsOn(MachineId machine) const {
    auto it = by_machine_.find(machine);
    return it == by_machine_.end() ? std::vector<uint64_t>{} : it->second;
  }

  Resources PreemptibleOn(MachineId machine, int32_t precedence) const {
    Resources total;
    for (const uint64_t id : IdsOn(machine)) {
      const RunningTask& t = tasks_.at(id);
      if (t.precedence < precedence) {
        total += t.resources;
      }
    }
    return total;
  }

  size_t Size() const { return tasks_.size(); }

 private:
  std::unordered_map<uint64_t, RunningTask> tasks_;
  std::unordered_map<MachineId, std::vector<uint64_t>> by_machine_;
  uint64_t next_id_ = 1;
};

TEST(TaskRegistryChurnTest, MatchesReferenceModelUnderRandomizedChurn) {
  TaskRegistry registry;
  ReferenceRegistry reference;
  Rng rng(4321);
  std::vector<uint64_t> live;
  constexpr uint32_t kMachines = 24;
  for (int step = 0; step < 5000; ++step) {
    const uint64_t op = rng.NextBounded(10);
    if (op < 6 || live.empty()) {
      const auto m = static_cast<MachineId>(rng.NextBounded(kMachines));
      const Resources r{0.5 + 0.5 * static_cast<double>(rng.NextBounded(4)),
                        1.0 + static_cast<double>(rng.NextBounded(4))};
      const auto prec = static_cast<int32_t>(rng.NextBounded(3));
      const uint64_t id = registry.Add(m, r, prec);
      const uint64_t ref_id = reference.Add(m, r, prec);
      ASSERT_EQ(id, ref_id);  // sequential ids are observable in traces
      live.push_back(id);
    } else {
      const size_t pick = rng.NextBounded(live.size());
      const uint64_t id = live[pick];
      EXPECT_TRUE(registry.Remove(id));
      reference.Remove(id);
      live[pick] = live.back();
      live.pop_back();
    }
    if (step % 50 == 0) {
      ASSERT_EQ(registry.NumRunning(), reference.Size());
      for (MachineId m = 0; m < kMachines; ++m) {
        const std::vector<uint64_t> expect_ids = reference.IdsOn(m);
        const std::vector<RunningTask> got = registry.TasksOn(m);
        ASSERT_EQ(got.size(), expect_ids.size()) << "machine " << m;
        for (size_t i = 0; i < got.size(); ++i) {
          // Exact order match: the per-machine list evolution is observable
          // through SelectVictims' non-stable sort.
          ASSERT_EQ(got[i].task_id, expect_ids[i]) << "machine " << m;
        }
        const auto prec = static_cast<int32_t>(rng.NextBounded(4));
        ASSERT_EQ(registry.PreemptibleOn(m, prec),
                  reference.PreemptibleOn(m, prec));
        ASSERT_EQ(registry.NumRunningOn(m), expect_ids.size());
      }
    }
  }
  EXPECT_FALSE(registry.Remove(~0ull));  // unknown id
}

TEST(TaskRegistryChurnTest, SlotReuseKeepsIdsUniqueAndSequential) {
  TaskRegistry registry;
  const uint64_t a = registry.Add(0, Resources{1.0, 1.0}, 0);
  const uint64_t b = registry.Add(1, Resources{1.0, 1.0}, 0);
  EXPECT_TRUE(registry.Remove(a));
  const uint64_t c = registry.Add(0, Resources{1.0, 1.0}, 0);  // reuses slot
  EXPECT_NE(c, a);
  EXPECT_EQ(c, b + 1);
  EXPECT_FALSE(registry.Remove(a));  // stale id does not resolve
  EXPECT_TRUE(registry.Remove(b));
  EXPECT_TRUE(registry.Remove(c));
  EXPECT_EQ(registry.NumRunning(), 0u);
}

}  // namespace
}  // namespace omega
