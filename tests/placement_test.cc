#include "src/scheduler/placement.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "src/hifi/scoring_placer.h"

namespace omega {
namespace {

constexpr Resources kMachine{4.0, 16.0};

Job MakeJob(uint32_t tasks, const Resources& per_task) {
  Job j;
  j.id = 1;
  j.num_tasks = tasks;
  j.task_resources = per_task;
  j.task_duration = Duration::FromSeconds(60);
  return j;
}

TEST(RandomizedFirstFitTest, PlacesAllWhenRoomExists) {
  CellState cell(8, kMachine);
  RandomizedFirstFitPlacer placer;
  Rng rng(1);
  const Job job = MakeJob(16, Resources{1.0, 2.0});
  std::vector<TaskClaim> claims;
  EXPECT_EQ(placer.PlaceTasks(cell, job, 16, rng, &claims), 16u);
  EXPECT_EQ(claims.size(), 16u);
  // Claims must be committable without conflicts.
  const CommitResult r =
      cell.Commit(claims, ConflictMode::kFineGrained, CommitMode::kIncremental);
  EXPECT_EQ(r.conflicted, 0);
  EXPECT_TRUE(cell.CheckInvariants());
}

TEST(RandomizedFirstFitTest, PendingClaimsStackWithinCall) {
  // One machine, 4 cpus: exactly 4 one-cpu tasks fit; a 5th must fail even
  // though nothing is committed yet.
  CellState cell(1, kMachine);
  RandomizedFirstFitPlacer placer;
  Rng rng(2);
  const Job job = MakeJob(5, Resources{1.0, 1.0});
  std::vector<TaskClaim> claims;
  EXPECT_EQ(placer.PlaceTasks(cell, job, 5, rng, &claims), 4u);
}

TEST(RandomizedFirstFitTest, FindsTheOnlyFit) {
  // Fill all but one machine; the linear-scan fallback must find the hole.
  CellState cell(64, kMachine);
  for (MachineId m = 0; m < 64; ++m) {
    if (m != 37) {
      cell.Allocate(m, Resources{4.0, 16.0});
    }
  }
  RandomizedFirstFitPlacer placer(/*max_random_probes=*/4);
  Rng rng(3);
  const Job job = MakeJob(1, Resources{2.0, 4.0});
  std::vector<TaskClaim> claims;
  ASSERT_EQ(placer.PlaceTasks(cell, job, 1, rng, &claims), 1u);
  EXPECT_EQ(claims[0].machine, 37u);
}

TEST(RandomizedFirstFitTest, ZeroWhenNothingFits) {
  CellState cell(4, kMachine);
  for (MachineId m = 0; m < 4; ++m) {
    cell.Allocate(m, Resources{3.5, 15.0});
  }
  RandomizedFirstFitPlacer placer;
  Rng rng(4);
  const Job job = MakeJob(2, Resources{1.0, 2.0});
  std::vector<TaskClaim> claims;
  EXPECT_EQ(placer.PlaceTasks(cell, job, 2, rng, &claims), 0u);
  EXPECT_TRUE(claims.empty());
}

TEST(RandomizedFirstFitTest, ClaimsCaptureSeqnums) {
  CellState cell(2, kMachine);
  cell.Allocate(0, Resources{1.0, 1.0});
  RandomizedFirstFitPlacer placer;
  Rng rng(5);
  const Job job = MakeJob(4, Resources{0.5, 0.5});
  std::vector<TaskClaim> claims;
  placer.PlaceTasks(cell, job, 4, rng, &claims);
  for (const TaskClaim& c : claims) {
    EXPECT_EQ(c.seqnum_at_placement, cell.machine(c.machine).seqnum);
  }
}

TEST(ConstraintTest, EqualityAndInequality) {
  const std::vector<int32_t> attrs{1, 2, 3};
  const std::span<const int32_t> m(attrs);
  Job job;
  job.constraints = {{0, 1, true}};
  EXPECT_TRUE(MachineSatisfiesConstraints(m, job));
  job.constraints = {{0, 2, true}};
  EXPECT_FALSE(MachineSatisfiesConstraints(m, job));
  job.constraints = {{1, 2, false}};
  EXPECT_FALSE(MachineSatisfiesConstraints(m, job));
  job.constraints = {{1, 5, false}};
  EXPECT_TRUE(MachineSatisfiesConstraints(m, job));
  job.constraints = {{0, 1, true}, {2, 3, true}};
  EXPECT_TRUE(MachineSatisfiesConstraints(m, job));
}

TEST(ConstraintTest, MissingAttributeKey) {
  const std::vector<int32_t> attrs{1};
  const std::span<const int32_t> m(attrs);
  Job job;
  job.constraints = {{5, 1, true}};  // key out of range
  EXPECT_FALSE(MachineSatisfiesConstraints(m, job));
  job.constraints = {{5, 1, false}};
  EXPECT_TRUE(MachineSatisfiesConstraints(m, job));
}

TEST(ConstraintTest, RandomizedFirstFitRespectsConstraintsWhenAsked) {
  CellState cell(16, kMachine);
  for (MachineId m = 0; m < 16; ++m) {
    cell.SetAttributes(m, {static_cast<int32_t>(m % 4)});
  }
  Job job = MakeJob(8, Resources{0.5, 0.5});
  job.constraints = {{0, 2, true}};
  RandomizedFirstFitPlacer placer(/*max_random_probes=*/8,
                                  /*respect_constraints=*/true);
  Rng rng(6);
  std::vector<TaskClaim> claims;
  EXPECT_EQ(placer.PlaceTasks(cell, job, 8, rng, &claims), 8u);
  for (const TaskClaim& c : claims) {
    EXPECT_EQ(c.machine % 4, 2u);
  }
}

TEST(ScoringPlacerTest, PicksTightestFeasibleMachine) {
  CellState cell(4, kMachine);
  cell.EnableAvailabilityIndex();
  cell.Allocate(0, Resources{3.0, 3.0});  // 1.0 cpu left: tightest fit
  cell.Allocate(1, Resources{2.0, 2.0});  // 2.0 left
  cell.Allocate(2, Resources{1.0, 1.0});  // 3.0 left
  ScoringPlacer placer;
  Rng rng(7);
  const Job job = MakeJob(1, Resources{1.0, 1.0});
  std::vector<TaskClaim> claims;
  ASSERT_EQ(placer.PlaceTasks(cell, job, 1, rng, &claims), 1u);
  EXPECT_EQ(claims[0].machine, 0u);
}

TEST(ScoringPlacerTest, RespectsConstraints) {
  CellState cell(16, kMachine);
  cell.EnableAvailabilityIndex();
  for (MachineId m = 0; m < 16; ++m) {
    cell.SetAttributes(m, {static_cast<int32_t>(m % 2)});
  }
  Job job = MakeJob(6, Resources{1.0, 1.0});
  job.constraints = {{0, 1, true}};
  ScoringPlacer placer;
  Rng rng(8);
  std::vector<TaskClaim> claims;
  EXPECT_EQ(placer.PlaceTasks(cell, job, 6, rng, &claims), 6u);
  for (const TaskClaim& c : claims) {
    EXPECT_EQ(c.machine % 2, 1u);
  }
}

TEST(ScoringPlacerTest, SpreadsAcrossFailureDomains) {
  // 8 empty machines in 4 domains; 4 tasks should land in 4 distinct domains
  // thanks to the spreading term (all machines tie on the fit term).
  CellState cell(8, kMachine, FullnessPolicy::kExact, 0.0,
                 /*machines_per_domain=*/2);
  cell.EnableAvailabilityIndex();
  ScoringPlacer placer(ScoringPlacerOptions{.candidate_sample = 64,
                                            .best_fit_weight = 1.0,
                                            .spreading_weight = 1.0});
  Rng rng(9);
  const Job job = MakeJob(4, Resources{1.0, 1.0});
  std::vector<TaskClaim> claims;
  ASSERT_EQ(placer.PlaceTasks(cell, job, 4, rng, &claims), 4u);
  std::set<int32_t> domains;
  for (const TaskClaim& c : claims) {
    domains.insert(cell.machine(c.machine).failure_domain);
  }
  EXPECT_EQ(domains.size(), 4u);
}

TEST(ScoringPlacerDeathTest, RequiresAvailabilityIndex) {
  CellState cell(8, kMachine);
  ScoringPlacer placer;
  Rng rng(10);
  const Job job = MakeJob(4, Resources{1.0, 1.0});
  std::vector<TaskClaim> claims;
  EXPECT_DEATH(placer.PlaceTasks(cell, job, 4, rng, &claims),
               "EnableAvailabilityIndex");
}

// --- fallback-scan edge cases ---

// Placements against the per-machine reference are diffed in
// reference_diff_test.cc; these pin lone fits at awkward positions.

TEST(FallbackScanTest, FindsFitStraddlingChunkBoundary) {
  // Only machines 63 and 64 (the two sides of a chunk boundary) have room;
  // the scan must find them regardless of where it starts.
  CellState cell(128, kMachine);
  for (MachineId m = 0; m < 128; ++m) {
    if (m != 63 && m != 64) {
      cell.Allocate(m, kMachine);
    }
  }
  RandomizedFirstFitPlacer placer(/*max_random_probes=*/2);
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed);
    const Job job = MakeJob(2, Resources{4.0, 16.0});
    std::vector<TaskClaim> claims;
    ASSERT_EQ(placer.PlaceTasks(cell, job, 2, rng, &claims), 2u) << seed;
    std::set<MachineId> machines;
    for (const TaskClaim& c : claims) {
      machines.insert(c.machine);
    }
    EXPECT_EQ(machines, (std::set<MachineId>{63, 64})) << seed;
  }
}

TEST(FallbackScanTest, FindsLastMachineFit) {
  // The very last machine, in a partial trailing chunk, is the only fit.
  constexpr uint32_t kMachines = 2 * 64 + 5;
  CellState cell(kMachines, kMachine);
  for (MachineId m = 0; m < kMachines - 1; ++m) {
    cell.Allocate(m, kMachine);
  }
  RandomizedFirstFitPlacer placer(/*max_random_probes=*/2);
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed);
    const Job job = MakeJob(1, Resources{1.0, 2.0});
    std::vector<TaskClaim> claims;
    ASSERT_EQ(placer.PlaceTasks(cell, job, 1, rng, &claims), 1u) << seed;
    EXPECT_EQ(claims[0].machine, kMachines - 1) << seed;
  }
}

TEST(FallbackScanTest, FullCellPlacesNothing) {
  constexpr uint32_t kMachines = 4 * 64;
  CellState cell(kMachines, kMachine);
  for (MachineId m = 0; m < kMachines; ++m) {
    cell.Allocate(m, Resources{3.8, 15.5});
  }
  RandomizedFirstFitPlacer placer;
  Rng rng(9);
  const Job job = MakeJob(4, Resources{1.0, 2.0});
  std::vector<TaskClaim> claims;
  EXPECT_EQ(placer.PlaceTasks(cell, job, 4, rng, &claims), 0u);
  EXPECT_TRUE(claims.empty());
}

TEST(FallbackScanTest, PartitionedRangeStillScansOnlyItsPartition) {
  // A range that starts mid-chunk must only ever claim machines inside the
  // range, and still finds the single fit there.
  CellState cell(256, kMachine);
  for (MachineId m = 0; m < 256; ++m) {
    if (m != 130) {
      cell.Allocate(m, kMachine);
    }
  }
  RandomizedFirstFitPlacer placer(/*max_random_probes=*/2, false,
                                  MachineRange{100, 200});
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    const Job job = MakeJob(1, Resources{1.0, 2.0});
    std::vector<TaskClaim> claims;
    ASSERT_EQ(placer.PlaceTasks(cell, job, 1, rng, &claims), 1u) << seed;
    EXPECT_EQ(claims[0].machine, 130u) << seed;
  }
}

TEST(ScoringPlacerTest, WalksToLooseBucketsForBigMemoryTasks) {
  // CPU-tight machines have no memory; a memory-hungry task must reach the
  // looser buckets even past the nominal visit budget.
  CellState cell(64, kMachine);
  cell.EnableAvailabilityIndex();
  for (MachineId m = 0; m < 63; ++m) {
    cell.Allocate(m, Resources{1.0, 15.5});  // plenty cpu, no memory
  }
  ScoringPlacer placer(ScoringPlacerOptions{.candidate_sample = 4});
  Rng rng(11);
  const Job job = MakeJob(1, Resources{0.5, 8.0});
  std::vector<TaskClaim> claims;
  ASSERT_EQ(placer.PlaceTasks(cell, job, 1, rng, &claims), 1u);
  EXPECT_EQ(claims[0].machine, 63u);
}

TEST(EpochFlagSetTest, InsertContainsResetAndNegativeKeys) {
  EpochFlagSet set;
  EXPECT_FALSE(set.Contains(0));
  set.Insert(3);
  set.Insert(0);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Contains(4000));
  set.Insert(-1);  // failure_domain can be "none": never stored
  EXPECT_FALSE(set.Contains(-1));
  set.Reset();
  EXPECT_FALSE(set.Contains(3));
  EXPECT_FALSE(set.Contains(0));
  set.Insert(3);
  EXPECT_TRUE(set.Contains(3));
}

}  // namespace
}  // namespace omega
