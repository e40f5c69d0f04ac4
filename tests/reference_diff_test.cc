// Differential tests against the naive reference model in
// tests/reference_cell.h (DESIGN.md §11, "The reference model").
//
// Each hot mechanism has one implementation in src/: the struct-of-arrays
// cell, the FindFirstFit sweep inside randomized first fit, and cohort task
// lifecycles. The suites here drive that implementation and the
// per-machine, per-task, per-claim reference with the same inputs and demand
// bit-identical results:
//   1. cell op streams (Allocate/Free, Commit, FindFirstFit);
//   2. RandomizedFirstFitPlacer vs ReferenceFirstFit on twin cells;
//   3. whole Omega runs with the default placer vs the reference placer;
//   4. cohort lifecycles vs a per-task oracle (one end time per task);
//   5. ScoringPlacer vs ReferenceScoringPlacer, the per-task walk of
//      tests/reference_scoring_placer.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/common/random.h"
#include "src/hifi/scoring_placer.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/cluster_simulation.h"
#include "src/scheduler/placement.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/cluster_config.h"
#include "tests/bitwise_eq.h"
#include "tests/reference_cell.h"
#include "tests/reference_scoring_placer.h"

namespace omega {
namespace {

const Resources kCapacity{4.0, 16.0};

// Bitwise per-machine allocation, seqnums and totals, each machine read both
// through the CellState::machine() snapshot and through the per-field
// accessors. The plain compare runs first because this is called after every
// operation on 4,097-machine cells.
void ExpectSameState(const CellState& cell, const ReferenceCell& ref,
                     const char* where) {
  ASSERT_EQ(cell.NumMachines(), ref.NumMachines());
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    const Machine a = cell.machine(m);
    const Resources a_alloc = cell.Allocated(m);
    const RefMachine& b = ref.machine(m);
    if (bits(a.allocated.cpus) == bits(b.allocated.cpus) &&
        bits(a.allocated.mem_gb) == bits(b.allocated.mem_gb) &&
        bits(a_alloc.cpus) == bits(b.allocated.cpus) &&
        bits(a_alloc.mem_gb) == bits(b.allocated.mem_gb) &&
        a.seqnum == b.seqnum && cell.Seqnum(m) == b.seqnum) {
      continue;
    }
    ASSERT_TRUE(SameBits(a.allocated.cpus, b.allocated.cpus))
        << where << ": machine " << m << " cpus";
    ASSERT_TRUE(SameBits(a.allocated.mem_gb, b.allocated.mem_gb))
        << where << ": machine " << m << " mem";
    ASSERT_EQ(a.seqnum, b.seqnum) << where << ": machine " << m << " seqnum";
    ASSERT_TRUE(SameBits(a_alloc.cpus, b.allocated.cpus))
        << where << ": machine " << m << " Allocated().cpus";
    ASSERT_TRUE(SameBits(a_alloc.mem_gb, b.allocated.mem_gb))
        << where << ": machine " << m << " Allocated().mem";
    ASSERT_EQ(cell.Seqnum(m), b.seqnum)
        << where << ": machine " << m << " Seqnum()";
  }
  const Resources a = cell.TotalAllocated();
  const Resources b = ref.TotalAllocated();
  ASSERT_TRUE(SameBits(a.cpus, b.cpus)) << where << ": total cpus";
  ASSERT_TRUE(SameBits(a.mem_gb, b.mem_gb)) << where << ": total mem";
}

void ExpectSameClaims(const std::vector<TaskClaim>& a,
                      const std::vector<TaskClaim>& b, const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].machine, b[i].machine) << where << ": claim " << i;
    ASSERT_EQ(a[i].seqnum_at_placement, b[i].seqnum_at_placement)
        << where << ": claim " << i;
    ASSERT_TRUE(SameBits(a[i].resources.cpus, b[i].resources.cpus))
        << where << ": claim " << i;
    ASSERT_TRUE(SameBits(a[i].resources.mem_gb, b[i].resources.mem_gb))
        << where << ": claim " << i;
  }
}

// ---------------------------------------------------------------------------
// 1. Cell op-stream fuzz: CellState and ReferenceCell receive the same random
// operations; state must match bitwise after every one.
// ---------------------------------------------------------------------------

// A live allocation both cells hold: `count` tasks of `per_task` on `machine`.
struct Live {
  MachineId machine;
  Resources per_task;
  uint32_t count;
};

// Non-dyadic task shapes, so any change in the order or grouping of the
// floating-point additions shows up in the bits.
Resources RandomTask(Rng& rng) {
  return Resources{0.1 * static_cast<double>(1 + rng.NextBounded(10)),
                   0.3 * static_cast<double>(1 + rng.NextBounded(12))};
}

// A request that exactly fills machine `m`, plus a slack inside
// kResourceEpsilon: it fits only through the epsilon in the fit predicate.
Resources ExactFitRequest(const ReferenceCell& ref, MachineId m, Rng& rng) {
  const Resources avail =
      (ref.UsableCapacity(m) - ref.machine(m).allocated).ClampNonNegative();
  static constexpr double kSlack[] = {0.0, 1e-12, 5e-10};
  const double slack = kSlack[rng.NextBounded(3)];
  return Resources{avail.cpus + slack, avail.mem_gb + slack};
}

void RunOpStream(uint32_t num_machines, FullnessPolicy fullness, uint64_t seed,
                 int num_ops) {
  const double headroom = fullness == FullnessPolicy::kHeadroom ? 0.1 : 0.0;
  CellState cell(num_machines, kCapacity, fullness, headroom);
  ReferenceCell ref(num_machines, kCapacity, fullness, headroom);
  Rng rng(seed);
  std::vector<Live> live;

  // Pre-fill in runs of 100 machines (not chunk-aligned): empty, 40% full,
  // near full, and near full topped up to an exact fit, so FindFirstFit has
  // long no-fit stretches to sweep and exact fits to find.
  for (MachineId m = 0; m < num_machines; ++m) {
    const uint64_t level = (m / 100 + seed) % 4;
    const Resources r = RandomTask(rng);
    while (level > 0 && ref.CanFit(m, r * 2.0) &&
           (level > 1 || ref.machine(m).allocated.cpus < 1.6)) {
      for (int i = 0; i < 2; ++i) {
        cell.Allocate(m, r);
        ref.Allocate(m, r);
      }
      live.push_back({m, r, 2});
    }
    if (level == 3) {
      const Resources fill = ExactFitRequest(ref, m, rng);
      cell.Allocate(m, fill);
      ref.Allocate(m, fill);
      live.push_back({m, fill, 1});
    }
  }
  ExpectSameState(cell, ref, "prefill");
  auto random_machine = [&] {
    return static_cast<MachineId>(rng.NextBounded(num_machines));
  };

  for (int op = 0; op < num_ops; ++op) {
    const uint64_t kind = rng.NextBounded(10);
    const MachineId m = random_machine();
    if (kind < 2) {
      // `count` tasks of one shape on one machine.
      const Resources r = rng.NextBounded(4) == 0 ? ExactFitRequest(ref, m, rng)
                                                  : RandomTask(rng);
      const auto count = static_cast<uint32_t>(1 + rng.NextBounded(5));
      Resources after = ref.machine(m).allocated;
      for (uint32_t i = 0; i < count; ++i) {
        after += r;
      }
      if (!after.FitsIn(ref.UsableCapacity(m))) {
        continue;
      }
      for (uint32_t i = 0; i < count; ++i) {
        cell.Allocate(m, r);
        ref.Allocate(m, r);
      }
      live.push_back({m, r, count});
    } else if (kind < 4) {
      // Free one live allocation, one task at a time.
      if (live.empty()) {
        continue;
      }
      const size_t pick = rng.NextBounded(live.size());
      const Live l = live[pick];
      live[pick] = live.back();
      live.pop_back();
      for (uint32_t i = 0; i < l.count; ++i) {
        cell.Free(l.machine, l.per_task);
        ref.Free(l.machine, l.per_task);
      }
    } else if (kind < 7) {
      // A transaction: uniform (one job's cohort) or mixed claims stacked on
      // a small window of machines, with fresh and stale seqnums, under
      // every conflict x commit mode.
      const bool uniform = rng.NextBounded(4) != 0;
      const Resources shape = RandomTask(rng);
      const auto window = static_cast<uint32_t>(1 + rng.NextBounded(8));
      std::vector<TaskClaim> claims;
      const auto n = 1 + rng.NextBounded(24);
      for (uint64_t i = 0; i < n; ++i) {
        const auto c = static_cast<MachineId>(
            (m + rng.NextBounded(window)) % num_machines);
        const uint64_t seq = ref.machine(c).seqnum;
        const uint64_t stale = rng.NextBounded(4);
        claims.push_back(TaskClaim{
            c, uniform ? shape : RandomTask(rng),
            stale == 0 ? seq + 1 : (stale == 1 && seq > 0 ? seq - 1 : seq)});
      }
      const auto conflict = rng.NextBounded(2) == 0
                                ? ConflictMode::kFineGrained
                                : ConflictMode::kCoarseGrained;
      const auto commit = rng.NextBounded(2) == 0 ? CommitMode::kIncremental
                                                  : CommitMode::kAllOrNothing;
      std::vector<TaskClaim> rejected_cell;
      std::vector<TaskClaim> rejected_ref;
      std::vector<TaskClaim> accepted_cell;
      std::vector<TaskClaim> accepted_ref;
      const CommitResult a =
          cell.Commit(claims, conflict, commit, &rejected_cell, &accepted_cell);
      const CommitResult b =
          ref.Commit(claims, conflict, commit, &rejected_ref, &accepted_ref);
      ASSERT_EQ(a.accepted, b.accepted) << "op " << op;
      ASSERT_EQ(a.conflicted, b.conflicted) << "op " << op;
      ExpectSameClaims(rejected_cell, rejected_ref, "rejected");
      ExpectSameClaims(accepted_cell, accepted_ref, "accepted");
      for (const TaskClaim& c : accepted_ref) {
        live.push_back({c.machine, c.resources, 1});
      }
    } else {
      // FindFirstFit over a random range: short ranges (a partial chunk or
      // less), ranges to the end, and ranges past the end of the cell.
      const MachineId begin = random_machine();
      const uint64_t shape = rng.NextBounded(3);
      const uint32_t rest = num_machines - begin;
      const uint64_t span = shape == 0   ? 1 + rng.NextBounded(20)
                            : shape == 1 ? rng.NextBounded(rest + 1)
                                         : rest + rng.NextBounded(70);
      const MachineId end = begin + static_cast<MachineId>(span);
      const Resources r =
          rng.NextBounded(2) == 0
              ? ExactFitRequest(ref, random_machine(), rng)
              : RandomTask(rng) * static_cast<double>(1 + rng.NextBounded(8));
      ASSERT_EQ(cell.FindFirstFit(begin, end, r), ref.FirstFit(begin, end, r))
          << "op " << op << " range [" << begin << ", " << end << ") request "
          << r;
      ASSERT_EQ(cell.CanFit(m, r), ref.CanFit(m, r)) << "op " << op;
    }
    ExpectSameState(cell, ref, "op stream");
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    if (op % 256 == 0) {
      ASSERT_TRUE(cell.CheckInvariants()) << "op " << op;
    }
  }
  ASSERT_TRUE(cell.CheckInvariants());
}

class CellOpStreamTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, FullnessPolicy>> {};

TEST_P(CellOpStreamTest, MatchesReferenceCellBitwise) {
  const auto [machines, fullness] = GetParam();
  const int ops = machines > 1000 ? 1500 : 3000;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    RunOpStream(machines, fullness, seed, ops);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// 63, 65 and 4097 are not multiples of FindFirstFit's 8-wide chunk, so every
// full-range sweep ends in a scalar tail.
INSTANTIATE_TEST_SUITE_P(
    SizesAndPolicies, CellOpStreamTest,
    ::testing::Combine(::testing::Values(63u, 65u, 4097u),
                       ::testing::Values(FullnessPolicy::kExact,
                                         FullnessPolicy::kHeadroom)));

// ---------------------------------------------------------------------------
// 2. RandomizedFirstFitPlacer vs ReferenceFirstFit on twin cells.
// ---------------------------------------------------------------------------

void RunPlacerDiff(uint32_t num_machines) {
  const Resources fill_task{1.0, 4.0};
  for (const double fill_fraction : {0.0, 0.5, 0.9, 0.97, 1.0}) {
    CellState cell(num_machines, kCapacity);
    ReferenceCell ref(num_machines, kCapacity);
    for (MachineId m = 0; m < num_machines; ++m) {
      const std::vector<int32_t> attrs{static_cast<int32_t>(m % 5),
                                       static_cast<int32_t>(m % 3)};
      cell.SetAttributes(m, attrs);
      ref.SetAttributes(m, attrs);
    }
    Rng fill(1234);
    const auto target =
        static_cast<uint32_t>(fill_fraction * num_machines * 4.0);
    uint32_t filled = 0;
    for (uint32_t attempt = 0; filled < target && attempt < num_machines * 64;
         ++attempt) {
      const auto m = static_cast<MachineId>(fill.NextBounded(num_machines));
      if (ref.CanFit(m, fill_task)) {
        cell.Allocate(m, fill_task);
        ref.Allocate(m, fill_task);
        ++filled;
      }
    }
    ExpectSameState(cell, ref, "fill");
    for (uint64_t seed = 1; seed <= 24; ++seed) {
      Rng pick(seed * 7919);
      const uint32_t probes = pick.NextBounded(2) == 0 ? 0 : 8;
      const bool respect = pick.NextBounded(2) == 0;
      MachineRange range;
      if (pick.NextBounded(2) == 0) {
        range.begin =
            static_cast<MachineId>(pick.NextBounded(num_machines - 1));
        range.end = range.begin + 1 +
                    static_cast<MachineId>(
                        pick.NextBounded(num_machines - range.begin));
      }
      Job job;
      job.id = seed;
      job.num_tasks = 8;
      job.task_resources = Resources{0.5, 2.0};
      job.constraints = {{0, static_cast<int32_t>(pick.NextBounded(5)), true},
                         {1, 0, false}};
      RandomizedFirstFitPlacer placer(probes, respect, range);
      Rng rng_a(seed);
      Rng rng_b(seed);
      std::vector<TaskClaim> got;
      std::vector<TaskClaim> want;
      const uint32_t na = placer.PlaceTasks(cell, job, 8, rng_a, &got);
      const uint32_t nb =
          ReferenceFirstFit(ref, job, 8, rng_b, &want, probes, respect, range);
      ASSERT_EQ(na, nb) << "fill " << fill_fraction << " seed " << seed;
      ExpectSameClaims(got, want, "placer");
      ASSERT_EQ(rng_a.Next(), rng_b.Next())
          << "RNG streams diverge: fill " << fill_fraction << " seed " << seed;
    }
  }
}

TEST(PlacerReferenceDiffTest, MatchesReferenceFirstFitAcrossFillsAndRanges) {
  // Cell sizes that are not multiples of FindFirstFit's 8-wide chunk, so
  // sweeps end in a scalar tail.
  RunPlacerDiff(3 * 64 + 17);
  RunPlacerDiff(4097);
}

// ---------------------------------------------------------------------------
// 3. Whole Omega runs: default placer vs the reference placer.
// ---------------------------------------------------------------------------

struct SimFingerprint {
  std::vector<uint64_t> seqnums;
  std::vector<double> allocated;  // cpus, mem per machine, exact
  double total_cpus = 0.0;
  double total_mem = 0.0;
  int64_t submitted = 0;
  int64_t preempted = 0;
  int64_t failures = 0;
  int64_t killed = 0;
  std::vector<TraceEvent> events;
  std::vector<int64_t> event_counts;
};

SimFingerprint Fingerprint(const ClusterSimulation& sim,
                           const TraceRecorder& trace) {
  SimFingerprint fp;
  const CellState& cell = sim.cell();
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    fp.seqnums.push_back(cell.machine(m).seqnum);
    fp.allocated.push_back(cell.machine(m).allocated.cpus);
    fp.allocated.push_back(cell.machine(m).allocated.mem_gb);
  }
  fp.total_cpus = cell.TotalAllocated().cpus;
  fp.total_mem = cell.TotalAllocated().mem_gb;
  fp.submitted = sim.JobsSubmittedTotal();
  fp.preempted = sim.TasksPreempted();
  fp.failures = sim.MachineFailures();
  fp.killed = sim.TasksKilledByFailures();
  trace.ForEachRetained(
      [&fp](const TraceEvent& e) { fp.events.push_back(e); });
  for (size_t t = 0; t < kNumTraceEventTypes; ++t) {
    fp.event_counts.push_back(trace.CountOf(static_cast<TraceEventType>(t)));
    fp.event_counts.push_back(trace.SumArg0(static_cast<TraceEventType>(t)));
  }
  return fp;
}

void ExpectIdentical(const SimFingerprint& a, const SimFingerprint& b) {
  EXPECT_EQ(a.seqnums, b.seqnums);
  ASSERT_EQ(a.allocated.size(), b.allocated.size());
  for (size_t i = 0; i < a.allocated.size(); ++i) {
    EXPECT_TRUE(SameBits(a.allocated[i], b.allocated[i])) << "entry " << i;
  }
  EXPECT_TRUE(SameBits(a.total_cpus, b.total_cpus));
  EXPECT_TRUE(SameBits(a.total_mem, b.total_mem));
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.preempted, b.preempted);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.event_counts, b.event_counts);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    const TraceEvent& x = a.events[i];
    const TraceEvent& y = b.events[i];
    ASSERT_TRUE(x.time_us == y.time_us && x.type == y.type &&
                x.track == y.track && x.job == y.job &&
                x.machine == y.machine && x.seqnum == y.seqnum &&
                x.arg0 == y.arg0 && x.arg1 == y.arg1)
        << "trace streams diverge at event " << i;
  }
}

// Runs the scenario with the default placer and with the reference placer;
// `check` asserts the scenario actually exercised its mechanism.
template <typename Check>
void DiffAgainstReferencePlacer(const ClusterConfig& cfg, const SimOptions& o,
                                const SchedulerConfig& batch,
                                const SchedulerConfig& service,
                                uint32_t batch_schedulers, Check&& check) {
  SimFingerprint fps[2];
  for (const bool reference : {false, true}) {
    PlacerFactory factory = nullptr;
    if (reference) {
      factory = [] { return std::make_unique<ReferenceFirstFitPlacer>(); };
    }
    OmegaSimulation sim(cfg, o, batch, service, batch_schedulers, {},
                        std::move(factory));
    TraceRecorder trace;
    sim.SetTraceRecorder(&trace);
    sim.Run();
    EXPECT_TRUE(sim.cell().CheckInvariants());
    check(sim);
    fps[reference ? 1 : 0] = Fingerprint(sim, trace);
  }
  ExpectIdentical(fps[0], fps[1]);
}

SimOptions DiffRun(uint64_t seed, double hours = 3.0) {
  SimOptions o;
  o.horizon = Duration::FromHours(hours);
  o.seed = seed;
  return o;
}

TEST(WholeRunReferenceDiffTest, OmegaMultiScheduler) {
  // Three batch schedulers with slow decisions at a high arrival rate commit
  // against the shared cell: conflicting transactions, partial commits and
  // retries.
  SchedulerConfig batch;
  batch.batch_times.t_job = Duration::FromSeconds(2);
  for (uint64_t seed : {2u, 11u}) {
    SimOptions o = DiffRun(seed);
    o.batch_rate_multiplier = 3.0;
    DiffAgainstReferencePlacer(
        TestCluster(64), o, batch, SchedulerConfig{}, 3,
        [](OmegaSimulation& sim) {
          EXPECT_GT(sim.MeanBatchConflictFraction(), 0.0);
        });
  }
}

TEST(WholeRunReferenceDiffTest, OmegaGangScheduling) {
  // All-or-nothing commits with coarse conflicts: gang aborts roll whole
  // transactions back.
  SchedulerConfig gang;
  gang.commit_mode = CommitMode::kAllOrNothing;
  gang.conflict_mode = ConflictMode::kCoarseGrained;
  DiffAgainstReferencePlacer(TestCluster(64), DiffRun(3), gang, gang, 3,
                             [](OmegaSimulation&) {});
}

TEST(WholeRunReferenceDiffTest, MachineFailures) {
  // Failures kill cohort members mid-flight and reserve the machine until
  // repair; placement must see the same availability either way.
  SimOptions o = DiffRun(8, 6.0);
  o.machine_failure_rate_per_day = 12.0;
  o.machine_repair_time = Duration::FromMinutes(30);
  DiffAgainstReferencePlacer(TestCluster(64), o, SchedulerConfig{},
                             SchedulerConfig{}, 1, [](OmegaSimulation& sim) {
                               EXPECT_GT(sim.MachineFailures(), 0);
                             });
}

TEST(WholeRunReferenceDiffTest, Preemption) {
  // A small cell saturated with long batch work plus rare large service jobs:
  // the service scheduler must evict batch tasks, including individual cohort
  // members.
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
  SchedulerConfig batch;
  batch.max_attempts = 20;
  batch.no_progress_backoff = Duration::FromSeconds(5);
  SchedulerConfig service = batch;
  service.enable_preemption = true;
  SimOptions o = DiffRun(9, 6.0);
  DiffAgainstReferencePlacer(cfg, o, batch, service, 1,
                             [](OmegaSimulation& sim) {
                               EXPECT_GT(sim.TasksPreempted(), 0);
                             });
}

// ---------------------------------------------------------------------------
// 4. Cohort lifecycles vs a per-task oracle.
// ---------------------------------------------------------------------------

// Kills tasks by hand (FailMachine, PreemptAndPlace) when `tracked`, which
// turns the running-task registry on.
class HarnessSim final : public ClusterSimulation {
 public:
  HarnessSim(const ClusterConfig& config, const SimOptions& options,
             bool tracked)
      : ClusterSimulation(config, options) {
    if (tracked) {
      TrackRunningTasks();
    }
  }
  using ClusterSimulation::FailMachine;
  void SubmitJob(const JobPtr&) override {}
};

// One on_task_end invocation.
struct EndCall {
  int64_t time_us;
  JobId job;
  MachineId machine;
  bool operator==(const EndCall&) const = default;
};

// Every task with its own end time, frees one task at a time, and the
// registry's per-machine list (append, swap-remove) that fixes kill order.
class LifecycleOracle {
 public:
  LifecycleOracle(uint32_t machines, Duration repair)
      : cell_(machines, kCapacity),
        repair_(repair),
        on_machine_(machines),
        reservation_(machines),
        down_(machines, false) {}

  ReferenceCell& cell() { return cell_; }
  const std::vector<EndCall>& expected() const { return expected_; }
  size_t live() const { return live_; }

  void Start(const Job& job, SimTime now,
             const std::vector<TaskClaim>& claims) {
    for (const TaskClaim& c : claims) {
      tasks_.push_back(Task{job.id, c.machine, c.resources, job.precedence,
                            (now + job.task_duration).micros(), true});
      on_machine_[c.machine].push_back(tasks_.size() - 1);
      ++live_;
    }
  }

  // Ends every task (start order, then claim order among equal end times)
  // and repairs every machine due strictly before `t`.
  void AdvanceTo(int64_t t) {
    struct Due {
      int64_t time;
      size_t task;  // or machine, for a repair
      bool repair;
    };
    std::vector<Due> due;
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].alive && tasks_[i].end_us < t) {
        due.push_back({tasks_[i].end_us, i, false});
      }
    }
    for (auto it = repairs_.begin(); it != repairs_.end();) {
      if (it->first < t) {
        due.push_back({it->first, it->second, true});
        it = repairs_.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(due.begin(), due.end(), [](const Due& a, const Due& b) {
      return a.time != b.time ? a.time < b.time : a.task < b.task;
    });
    for (const Due& d : due) {
      if (d.repair) {
        const auto m = static_cast<MachineId>(d.task);
        if (!reservation_[m].IsZero()) {
          cell_.Free(m, reservation_[m]);
        }
        reservation_[m] = Resources::Zero();
        down_[m] = false;
      } else {
        const Task& t = tasks_[d.task];
        expected_.push_back({d.time, t.job, t.machine});
        Kill(d.task);
      }
    }
  }

  void FailMachine(MachineId m, SimTime now) {
    if (down_[m]) {
      return;
    }
    down_[m] = true;
    const std::vector<size_t> victims = on_machine_[m];
    for (const size_t i : victims) {
      expected_.push_back({now.micros(), tasks_[i].job, m});
      Kill(i);
    }
    const RefMachine& machine = cell_.machine(m);
    const Resources reservation =
        (machine.capacity - machine.allocated).ClampNonNegative();
    if (!reservation.IsZero()) {
      cell_.Allocate(m, reservation);
    }
    reservation_[m] = reservation;
    repairs_.push_back({(now + repair_).micros(), m});
  }

  // Mirrors PreemptAndPlace once the harness has chosen machine `m`: evict
  // the least important, then smallest, lower-precedence tasks (the
  // registry's documented victim order) until the task fits.
  void PreemptOnto(const Job& job, MachineId m, SimTime now) {
    const Resources available =
        (cell_.UsableCapacity(m) - cell_.machine(m).allocated)
            .ClampNonNegative();
    const Resources shortfall =
        (job.task_resources - available).ClampNonNegative();
    if (!shortfall.IsZero()) {
      std::vector<size_t> candidates;
      for (const size_t i : on_machine_[m]) {
        if (tasks_[i].precedence < job.precedence) {
          candidates.push_back(i);
        }
      }
      std::sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
        if (tasks_[a].precedence != tasks_[b].precedence) {
          return tasks_[a].precedence < tasks_[b].precedence;
        }
        return tasks_[a].resources.cpus < tasks_[b].resources.cpus;
      });
      Resources freed;
      for (const size_t i : candidates) {
        if (shortfall.FitsIn(freed)) {
          break;
        }
        freed += tasks_[i].resources;
        expected_.push_back({now.micros(), tasks_[i].job, m});
        Kill(i);
      }
    }
    cell_.Allocate(m, job.task_resources);
  }

 private:
  struct Task {
    JobId job;
    MachineId machine;
    Resources resources;
    int32_t precedence;
    int64_t end_us;
    bool alive;
  };

  void Kill(size_t i) {
    Task& t = tasks_[i];
    t.alive = false;
    --live_;
    std::vector<size_t>& list = on_machine_[t.machine];
    const auto pos = std::find(list.begin(), list.end(), i);
    *pos = list.back();
    list.pop_back();
    cell_.Free(t.machine, t.resources);
  }

  ReferenceCell cell_;
  Duration repair_;
  std::vector<Task> tasks_;
  std::vector<std::vector<size_t>> on_machine_;
  std::vector<Resources> reservation_;
  std::vector<bool> down_;
  std::vector<std::pair<int64_t, size_t>> repairs_;
  std::vector<EndCall> expected_;
  size_t live_ = 0;
};

void RunLifecycle(bool tracked, uint64_t seed) {
  constexpr uint32_t kMachines = 8;
  // Actions at 10k + 3 s, task ends at 10k + 4 s and repairs at 10k + 5 s:
  // no two kinds ever share an instant, so the oracle needs no tie rules
  // beyond start order.
  const Duration repair = Duration::FromSeconds(3602);
  SimOptions options;
  options.machine_repair_time = repair;
  HarnessSim sim(TestCluster(kMachines), options, tracked);
  LifecycleOracle oracle(kMachines, repair);
  std::vector<EndCall> seen;
  Rng rng(seed);
  Rng preempt_rng(seed ^ 0x5eed);
  JobId next_job = 1;

  auto callback_for = [&](JobId id) {
    return [&seen, &sim, id](const TaskClaim& c) {
      seen.push_back({sim.sim().Now().micros(), id, c.machine});
    };
  };
  // Dyadic shapes: every free order produces the same bits.
  auto dyadic_job = [&](int32_t precedence) {
    Job job;
    job.id = next_job++;
    job.task_resources =
        Resources{0.25 * static_cast<double>(1 + rng.NextBounded(6)),
                  0.25 * static_cast<double>(1 + rng.NextBounded(16))};
    job.task_duration = Duration::FromSeconds(
        10.0 * static_cast<double>(1 + rng.NextBounded(60)) + 1.0);
    job.precedence = precedence;
    return job;
  };
  auto checkpoint = [&](int step) {
    oracle.AdvanceTo(sim.sim().Now().micros());
    ExpectSameState(sim.cell(), oracle.cell(), "lifecycle checkpoint");
    ASSERT_EQ(sim.task_registry().NumRunning(), tracked ? oracle.live() : 0u)
        << "step " << step;
    ASSERT_EQ(seen, oracle.expected()) << "step " << step;
  };

  constexpr int kSteps = 240;
  for (int step = 0; step < kSteps; ++step) {
    const SimTime at =
        SimTime::Zero() + Duration::FromSeconds(10.0 * step + 3.0);
    sim.sim().ScheduleAt(at, [&, step] {
      checkpoint(step);
      const uint64_t kind = rng.NextBounded(10);
      const auto m = static_cast<MachineId>(rng.NextBounded(kMachines));
      // Without the registry nothing can kill a task: cohorts only.
      if (kind < 6 || !tracked) {
        // A cohort of up to six tasks over random machines, stacking allowed.
        Job job = dyadic_job(static_cast<int32_t>(rng.NextBounded(3)));
        std::vector<TaskClaim> claims;
        const auto n = 1 + rng.NextBounded(6);
        for (uint64_t i = 0; i < n; ++i) {
          const auto c = static_cast<MachineId>(rng.NextBounded(kMachines));
          if (sim.cell().CanFit(c, job.task_resources)) {
            claims.push_back(
                TaskClaim{c, job.task_resources, sim.cell().machine(c).seqnum});
            sim.cell().Allocate(c, job.task_resources);
            oracle.cell().Allocate(c, job.task_resources);
          }
        }
        job.num_tasks = static_cast<uint32_t>(claims.size());
        oracle.Start(job, sim.sim().Now(), claims);
        sim.StartTasks(job, claims, callback_for(job.id));
      } else if (kind < 8) {
        oracle.FailMachine(m, sim.sim().Now());
        sim.FailMachine(m);
      } else {
        // Preemption by a task above every cohort's precedence.
        Job job = dyadic_job(3);
        job.num_tasks = 1;
        const MachineId placed = sim.PreemptAndPlace(job, preempt_rng);
        if (placed == kInvalidMachineId) {
          return;
        }
        oracle.PreemptOnto(job, placed, sim.sim().Now());
        const std::vector<TaskClaim> claim{
            {placed, job.task_resources, sim.cell().machine(placed).seqnum}};
        oracle.Start(job, sim.sim().Now(), claim);
        sim.StartTasks(job, claim, callback_for(job.id));
      }
    });
  }
  sim.sim().RunUntil(SimTime::Zero() +
                     Duration::FromSeconds(10.0 * kSteps + 3.0));
  checkpoint(kSteps);
  // Drain: every task ends and every machine is repaired.
  sim.sim().RunUntil(SimTime::Zero() + Duration::FromHours(4));
  oracle.AdvanceTo(sim.sim().Now().micros() + 1);
  ExpectSameState(sim.cell(), oracle.cell(), "drained");
  EXPECT_EQ(seen, oracle.expected());
  EXPECT_EQ(sim.task_registry().NumRunning(), 0u);
  EXPECT_TRUE(sim.cell().CheckInvariants());
  if (tracked) {
    EXPECT_GT(sim.TasksKilledByFailures(), 0);
    EXPECT_GT(sim.TasksPreempted(), 0);
  }
}

TEST(LifecycleReferenceDiffTest, CohortsMatchPerTaskOracleTracked) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    RunLifecycle(/*tracked=*/true, seed);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(LifecycleReferenceDiffTest, CohortsMatchPerTaskOracleUntracked) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    RunLifecycle(/*tracked=*/false, seed);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// 5. ScoringPlacer vs ReferenceScoringPlacer on one evolving cell.
// ---------------------------------------------------------------------------

// The cell shapes of the high-fidelity simulator: exact and headroom
// fullness, homogeneous machines and heterogeneous machine classes.
struct ScoringCellShape {
  FullnessPolicy fullness;
  double headroom;
  bool classes;
};

constexpr ScoringCellShape kScoringShapes[] = {
    {FullnessPolicy::kExact, 0.0, false},
    {FullnessPolicy::kHeadroom, 0.04, false},
    {FullnessPolicy::kExact, 0.0, true},
    {FullnessPolicy::kHeadroom, 0.1, true},
};

// candidate_sample 1, 4 and 8 stop each task at its first feasible machine;
// 64 scores up to 8 and stops after 256 visits once one is feasible.
constexpr uint32_t kCandidateSamples[] = {1, 4, 8, 64};

std::unique_ptr<CellState> MakeScoringCell(const ScoringCellShape& shape,
                                           uint32_t num_machines, Rng& rng) {
  ClusterConfig cfg;
  cfg.num_machines = num_machines;
  cfg.machine_capacity = kCapacity;
  if (shape.classes) {
    cfg.machine_classes = {{Resources{4.0, 16.0}, 0.5},
                           {Resources{8.0, 16.0}, 0.3},
                           {Resources{2.0, 32.0}, 0.2}};
  }
  auto cell = std::make_unique<CellState>(BuildMachineCapacities(cfg),
                                          shape.fullness, shape.headroom,
                                          /*machines_per_domain=*/16);
  for (MachineId m = 0; m < num_machines; ++m) {
    cell->SetAttributes(m, {static_cast<int32_t>(rng.NextBounded(4)),
                            static_cast<int32_t>(rng.NextBounded(4)),
                            static_cast<int32_t>(rng.NextBounded(4))});
  }
  cell->EnableAvailabilityIndex();
  return cell;
}

// Jobs of 1 to 2,000 tasks of one of a few shapes (CPU-bound, memory-bound,
// tiny), with none to three placement constraints.
Job RandomScoringJob(Rng& rng, uint64_t id) {
  constexpr Resources kShapes[] = {{0.25, 1.0}, {0.5, 2.0}, {1.0, 1.0},
                                   {1.0, 6.0},  {2.0, 4.0}, {0.1, 0.2}};
  constexpr uint32_t kCounts[] = {1, 2, 9, 40, 300, 2000};
  Job job;
  job.id = id;
  job.task_resources = kShapes[rng.NextBounded(6)];
  job.num_tasks = kCounts[rng.NextBounded(6)];
  const uint64_t constraints = rng.NextBounded(4);
  for (uint64_t k = 0; k < constraints; ++k) {
    job.constraints.push_back(
        {static_cast<int32_t>(k), static_cast<int32_t>(rng.NextBounded(4)),
         k != 1 || rng.NextBool(0.5)});
  }
  return job;
}

// One ScoringPlacer and one ReferenceScoringPlacer per kCandidateSamples
// entry, each reused across calls.
class ScoringPlacerPairs {
 public:
  ScoringPlacerPairs() {
    for (const uint32_t sample : kCandidateSamples) {
      placers_.emplace_back(ScoringPlacerOptions{.candidate_sample = sample});
      refs_.emplace_back(ScoringPlacerOptions{.candidate_sample = sample});
    }
  }

  // Places `job` with every pair and demands bitwise-equal claims; returns
  // the last pair's claims.
  std::vector<TaskClaim> Diff(const CellState& cell, const Job& job) {
    std::vector<TaskClaim> got;
    for (size_t p = 0; p < placers_.size(); ++p) {
      SCOPED_TRACE(::testing::Message()
                   << "candidate_sample " << kCandidateSamples[p] << " job "
                   << job.id << " tasks " << job.num_tasks);
      Rng rng_a(job.id);
      Rng rng_b(job.id);
      std::vector<TaskClaim> want;
      got.clear();
      const uint32_t na =
          placers_[p].PlaceTasks(cell, job, job.num_tasks, rng_a, &got);
      const uint32_t nb =
          refs_[p].PlaceTasks(cell, job, job.num_tasks, rng_b, &want);
      EXPECT_EQ(na, nb);
      EXPECT_EQ(na, got.size());
      ExpectSameClaims(got, want, "scoring placer");
      if (::testing::Test::HasFailure()) {
        break;
      }
    }
    return got;
  }

 private:
  std::vector<ScoringPlacer> placers_;
  std::vector<ReferenceScoringPlacer> refs_;
};

// Counts of calls that show the grid reaches both ends of the walk.
struct ScoringDiffCoverage {
  // Calls that ran out of feasible machines before placing every task.
  uint32_t short_calls = 0;
  // Calls in which the job's own claims filled a machine, which then leaves
  // ScoringPlacer's candidate list.
  uint32_t filling_calls = 0;
};

bool FillsSomeMachine(const CellState& cell, const Job& job,
                      const std::vector<TaskClaim>& claims) {
  PendingClaims pending;
  pending.Reset(cell.NumMachines());
  for (const TaskClaim& c : claims) {
    pending.Add(c.machine, c.resources);
  }
  for (const TaskClaim& c : claims) {
    if (!cell.CanFitWithPending(c.machine, job.task_resources,
                                pending.On(c.machine))) {
      return true;
    }
  }
  return false;
}

void RunScoringDiff(const ScoringCellShape& shape, uint64_t seed,
                    ScoringDiffCoverage* coverage) {
  Rng rng(seed);
  std::unique_ptr<CellState> cell = MakeScoringCell(shape, 300, rng);
  ScoringPlacerPairs placers;
  constexpr Resources kFillShapes[] = {
      {0.25, 1.0}, {0.5, 2.0}, {1.0, 4.0}, {2.0, 1.0}, {0.5, 7.0}};
  constexpr double kTargets[] = {0.0, 0.3, 0.7, 0.9, 0.98};
  std::vector<std::pair<MachineId, Resources>> held;
  for (uint64_t round = 0; round < 16; ++round) {
    // Move the cell to a new fill level, so later calls see another index
    // order with the same placers.
    const double target = kTargets[rng.NextBounded(5)];
    while (!held.empty() && cell->CpuUtilization() > target) {
      const size_t pick = rng.NextBounded(held.size());
      cell->Free(held[pick].first, held[pick].second);
      held[pick] = held.back();
      held.pop_back();
    }
    for (uint32_t attempt = 0;
         attempt < 8 * cell->NumMachines() && cell->CpuUtilization() < target;
         ++attempt) {
      const auto m = static_cast<MachineId>(rng.NextBounded(300));
      const Resources r = kFillShapes[rng.NextBounded(5)];
      if (cell->CanFit(m, r)) {
        cell->Allocate(m, r);
        held.emplace_back(m, r);
      }
    }
    const Job job = RandomScoringJob(rng, seed * 100 + round);
    const std::vector<TaskClaim> claims = placers.Diff(*cell, job);
    if (::testing::Test::HasFailure()) {
      return;
    }
    coverage->short_calls += claims.size() < job.num_tasks ? 1 : 0;
    coverage->filling_calls += FillsSomeMachine(*cell, job, claims) ? 1 : 0;
    // Commit one call in two, so jobs' placements pile up.
    if (rng.NextBool(0.5)) {
      std::vector<TaskClaim> accepted;
      cell->Commit(claims, ConflictMode::kFineGrained,
                   CommitMode::kIncremental, nullptr, &accepted);
      for (const TaskClaim& c : accepted) {
        held.emplace_back(c.machine, c.resources);
      }
    }
  }
}

TEST(ScoringPlacerReferenceDiffTest, MatchesPerTaskWalkAcrossShapesAndFills) {
  ScoringDiffCoverage coverage;
  for (const ScoringCellShape& shape : kScoringShapes) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "headroom " << shape.headroom << " classes "
                   << shape.classes << " seed " << seed);
      RunScoringDiff(shape, seed, &coverage);
      if (HasFailure()) {
        return;
      }
    }
  }
  // The grid must reach both ends: calls that run out of feasible machines,
  // and calls whose tasks fill machine after machine.
  EXPECT_GT(coverage.short_calls, 50u);
  EXPECT_GT(coverage.filling_calls, 50u);
}

TEST(ScoringPlacerReferenceDiffTest, FeasibleMachinesOnlyPastTheVisitBudget) {
  // Only one machine in 97 carries the attribute the jobs need, so most
  // tasks visit far more than 4 * candidate_sample machines between feasible
  // ones; a job whose attribute no machine has walks the whole index.
  for (const FullnessPolicy fullness :
       {FullnessPolicy::kExact, FullnessPolicy::kHeadroom}) {
    CellState cell(1200, kCapacity, fullness, 0.04, /*machines_per_domain=*/8);
    for (MachineId m = 0; m < cell.NumMachines(); ++m) {
      cell.SetAttributes(m, {m % 97 == 5 ? 1 : 0});
      // 15 fill levels from empty to 3.5 cpus / 14 GB, spread over the
      // walk's buckets.
      const double level = static_cast<double>(m % 15);
      if (level > 0.0) {
        cell.Allocate(m, Resources{0.25 * level, 1.0 * level});
      }
    }
    cell.EnableAvailabilityIndex();
    ScoringPlacerPairs placers;
    uint64_t id = 0;
    for (const int32_t value : {1, 2}) {
      for (const uint32_t tasks : {1u, 5u, 60u, 2000u}) {
        Job job;
        job.id = ++id;
        job.num_tasks = tasks;
        job.task_resources = Resources{0.5, 2.0};
        job.constraints = {{0, value, true}};
        const std::vector<TaskClaim> claims = placers.Diff(cell, job);
        if (HasFailure()) {
          return;
        }
        if (value == 2) {
          EXPECT_TRUE(claims.empty());
        } else {
          EXPECT_GT(claims.size(), 0u);
        }
      }
    }
  }
}

TEST(ScoringPlacerReferenceDiffTest, StopsExactlyAtTheVisitBudget) {
  // One bucket holds the whole walk in id order (the index is built after
  // the allocations). Machine 0 is feasible and machine `better`, a big
  // machine that packs tighter, is the only other feasible one. At
  // candidate_sample 64 a task stops after 256 visits once something is
  // feasible, so it reaches `better` only if `better` is among the first 256
  // walk entries.
  for (const MachineId better : {254u, 255u, 256u, 257u}) {
    std::vector<Resources> capacities(400, kCapacity);
    capacities[better] = Resources{8.0, 32.0};
    CellState cell(std::move(capacities));
    cell.Allocate(better, Resources{4.0, 16.0});
    for (MachineId m = 0; m < cell.NumMachines(); ++m) {
      cell.SetAttributes(m, {m == 0 || m == better ? 1 : 0});
    }
    cell.EnableAvailabilityIndex();
    ASSERT_EQ(AvailabilityWalk(cell, Resources{0.5, 2.0})[better], better);
    ScoringPlacerPairs placers;
    Job job;
    job.id = better;
    job.num_tasks = 3;
    job.task_resources = Resources{0.5, 2.0};
    job.constraints = {{0, 1, true}};
    const std::vector<TaskClaim> claims = placers.Diff(cell, job);
    if (HasFailure()) {
      return;
    }
    ASSERT_EQ(claims.size(), 3u);
    EXPECT_EQ(claims[0].machine, better < 256 ? better : 0u) << better;
  }
}

}  // namespace
}  // namespace omega
