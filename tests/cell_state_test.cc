#include "src/cluster/cell_state.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/common/random.h"
#include "tests/reference_scoring_placer.h"

namespace omega {
namespace {

constexpr Resources kMachine{4.0, 16.0};
constexpr Resources kTask{1.0, 2.0};

TEST(CellStateTest, ConstructionTotals) {
  CellState cell(10, kMachine);
  EXPECT_EQ(cell.NumMachines(), 10u);
  EXPECT_EQ(cell.TotalCapacity(), (Resources{40.0, 160.0}));
  EXPECT_TRUE(cell.TotalAllocated().IsZero());
  EXPECT_DOUBLE_EQ(cell.CpuUtilization(), 0.0);
}

TEST(CellStateTest, FailureDomainsGroupMachines) {
  CellState cell(10, kMachine, FullnessPolicy::kExact, 0.0,
                 /*machines_per_domain=*/4);
  EXPECT_EQ(cell.machine(0).failure_domain, 0);
  EXPECT_EQ(cell.machine(3).failure_domain, 0);
  EXPECT_EQ(cell.machine(4).failure_domain, 1);
  EXPECT_EQ(cell.machine(9).failure_domain, 2);
}

TEST(CellStateTest, AllocateFreeRoundTrip) {
  CellState cell(2, kMachine);
  cell.Allocate(0, kTask);
  EXPECT_EQ(cell.machine(0).allocated, kTask);
  EXPECT_EQ(cell.TotalAllocated(), kTask);
  EXPECT_DOUBLE_EQ(cell.CpuUtilization(), 1.0 / 8.0);
  cell.Free(0, kTask);
  EXPECT_TRUE(cell.TotalAllocated().IsZero());
  EXPECT_TRUE(cell.CheckInvariants());
}

TEST(CellStateTest, SeqnumBumpsOnEveryChange) {
  CellState cell(1, kMachine);
  const uint64_t s0 = cell.machine(0).seqnum;
  cell.Allocate(0, kTask);
  EXPECT_EQ(cell.machine(0).seqnum, s0 + 1);
  cell.Free(0, kTask);
  EXPECT_EQ(cell.machine(0).seqnum, s0 + 2);
}

TEST(CellStateDeathTest, OvercommitAborts) {
  CellState cell(1, kMachine);
  cell.Allocate(0, Resources{4.0, 16.0});
  EXPECT_DEATH(cell.Allocate(0, kTask), "overcommit");
}

TEST(CellStateDeathTest, NegativeFreeAborts) {
  CellState cell(1, kMachine);
  EXPECT_DEATH(cell.Free(0, kTask), "negative allocation");
}

TEST(CellStateTest, CanFitExactPolicy) {
  CellState cell(1, kMachine);
  EXPECT_TRUE(cell.CanFit(0, Resources{4.0, 16.0}));
  EXPECT_FALSE(cell.CanFit(0, Resources{4.5, 1.0}));
  cell.Allocate(0, Resources{3.5, 1.0});
  EXPECT_TRUE(cell.CanFit(0, Resources{0.5, 1.0}));
  EXPECT_FALSE(cell.CanFit(0, Resources{0.6, 1.0}));
}

TEST(CellStateTest, HeadroomPolicyIsStricter) {
  CellState exact(1, kMachine, FullnessPolicy::kExact);
  CellState headroom(1, kMachine, FullnessPolicy::kHeadroom, 0.1);
  // 3.7 cpus fits exactly but violates the 10% headroom (3.6 usable).
  EXPECT_TRUE(exact.CanFit(0, Resources{3.7, 1.0}));
  EXPECT_FALSE(headroom.CanFit(0, Resources{3.7, 1.0}));
  EXPECT_TRUE(headroom.CanFit(0, Resources{3.6, 1.0}));
  EXPECT_EQ(headroom.UsableCapacity(0), (Resources{3.6, 14.4}));
}

TEST(CellStateTest, CanFitWithPendingStacks) {
  CellState cell(1, kMachine);
  EXPECT_TRUE(
      cell.CanFitWithPending(0, Resources{2.0, 2.0}, Resources{2.0, 2.0}));
  EXPECT_FALSE(
      cell.CanFitWithPending(0, Resources{2.5, 2.0}, Resources{2.0, 2.0}));
}

// --- transaction commit semantics (§3.4, §5.2) ---

TaskClaim Claim(const CellState& cell, MachineId m, const Resources& r) {
  return TaskClaim{m, r, cell.machine(m).seqnum};
}

TEST(CommitTest, CleanCommitAcceptsAll) {
  CellState cell(2, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask), Claim(cell, 1, kTask)};
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 2);
  EXPECT_EQ(r.conflicted, 0);
  EXPECT_TRUE(r.AllAccepted());
  EXPECT_EQ(cell.TotalAllocated(), kTask + kTask);
}

TEST(CommitTest, FineGrainedAcceptsDespiteInterveningFit) {
  CellState cell(1, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask)};
  // Another scheduler commits to the same machine, but room remains.
  cell.Allocate(0, kTask);
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 1);
  EXPECT_EQ(r.conflicted, 0);
}

TEST(CommitTest, FineGrainedRejectsOvercommit) {
  CellState cell(1, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, Resources{2.0, 2.0})};
  cell.Allocate(0, Resources{3.0, 2.0});  // now only 1 cpu left
  std::vector<TaskClaim> rejected;
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kIncremental, &rejected);
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.conflicted, 1);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].machine, 0u);
}

TEST(CommitTest, CoarseGrainedRejectsAnyChange) {
  CellState cell(1, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask)};
  // An allocation that still leaves room: fine-grained would accept, coarse
  // conflicts because the sequence number moved.
  cell.Allocate(0, kTask);
  const CommitResult r = cell.Commit(claims, ConflictMode::kCoarseGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.conflicted, 1);
}

TEST(CommitTest, CoarseGrainedSpuriousConflictOnFree) {
  CellState cell(1, kMachine);
  cell.Allocate(0, kTask);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask)};
  // A *free* makes the machine emptier; coarse detection still conflicts.
  cell.Free(0, kTask);
  const CommitResult coarse = cell.Commit(claims, ConflictMode::kCoarseGrained,
                                          CommitMode::kIncremental);
  EXPECT_EQ(coarse.conflicted, 1);
}

TEST(CommitTest, IntraTransactionClaimsDoNotConflict) {
  CellState cell(1, kMachine);
  // Two tasks of the same transaction stack onto one machine; coarse-grained
  // detection must not treat the first as a conflict for the second.
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask), Claim(cell, 0, kTask)};
  const CommitResult r = cell.Commit(claims, ConflictMode::kCoarseGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 2);
  EXPECT_EQ(r.conflicted, 0);
}

TEST(CommitTest, IntraTransactionOvercommitRejected) {
  CellState cell(1, kMachine);
  // Three 2-cpu tasks cannot all fit a 4-cpu machine even within one txn.
  const Resources big{2.0, 2.0};
  std::vector<TaskClaim> claims{Claim(cell, 0, big), Claim(cell, 0, big),
                                Claim(cell, 0, big)};
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 2);
  EXPECT_EQ(r.conflicted, 1);
  EXPECT_TRUE(cell.CheckInvariants());
}

TEST(CommitTest, AllOrNothingRejectsWholeTransaction) {
  CellState cell(2, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask),
                                Claim(cell, 1, Resources{2.0, 2.0})};
  cell.Allocate(1, Resources{3.0, 2.0});  // machine 1 can no longer fit 2 cpus
  std::vector<TaskClaim> rejected;
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kAllOrNothing, &rejected);
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.conflicted, 2);
  EXPECT_EQ(rejected.size(), 2u);
  // Machine 0 must be untouched (atomicity).
  EXPECT_TRUE(cell.machine(0).allocated.IsZero());
}

TEST(CommitTest, AllOrNothingCleanCommits) {
  CellState cell(2, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask), Claim(cell, 1, kTask)};
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kAllOrNothing);
  EXPECT_EQ(r.accepted, 2);
}

TEST(CommitTest, ReportsAcceptedAndRejectedClaimsInClaimOrder) {
  // A competing commit fills machine 0 so that only one of the three
  // identical claims stacked there still fits: the first one is accepted,
  // the later two conflict, and machine 1's claim goes through.
  CellState cell(2, kMachine);
  const Resources r{1.5, 1.0};
  const std::vector<TaskClaim> claims{Claim(cell, 0, r), Claim(cell, 0, r),
                                      Claim(cell, 1, r), Claim(cell, 0, r)};
  cell.Allocate(0, Resources{2.0, 1.0});
  std::vector<TaskClaim> rejected;
  std::vector<TaskClaim> accepted;
  const CommitResult result =
      cell.Commit(claims, ConflictMode::kFineGrained, CommitMode::kIncremental,
                  &rejected, &accepted);
  EXPECT_EQ(result.accepted, 2);
  EXPECT_EQ(result.conflicted, 2);
  ASSERT_EQ(accepted.size(), 2u);
  EXPECT_EQ(accepted[0].machine, 0u);
  EXPECT_EQ(accepted[1].machine, 1u);
  ASSERT_EQ(rejected.size(), 2u);
  EXPECT_EQ(rejected[0].machine, 0u);
  EXPECT_EQ(rejected[1].machine, 0u);
  EXPECT_EQ(cell.machine(0).allocated, (Resources{3.5, 2.0}));
}

TEST(CommitTest, AllOrNothingConflictAcceptsNothing) {
  CellState cell(2, kMachine);
  const std::vector<TaskClaim> claims{Claim(cell, 0, kTask),
                                      Claim(cell, 1, kTask)};
  cell.Allocate(1, kTask);
  std::vector<TaskClaim> accepted;
  const CommitResult result =
      cell.Commit(claims, ConflictMode::kCoarseGrained,
                  CommitMode::kAllOrNothing, nullptr, &accepted);
  EXPECT_EQ(result.accepted, 0);
  EXPECT_TRUE(accepted.empty());
}

TEST(CommitTest, EmptyTransactionIsNoop) {
  CellState cell(1, kMachine);
  const CommitResult r = cell.Commit({}, ConflictMode::kFineGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.conflicted, 0);
}

// Property: fine-grained detection accepts a superset of coarse-grained, for
// random interleavings of claims and concurrent commits.
class ConflictModePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConflictModePropertyTest, FineAcceptsSupersetOfCoarse) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    CellState fine(8, kMachine);
    CellState coarse(8, kMachine);
    // Pre-fill both identically.
    for (int i = 0; i < 10; ++i) {
      const auto m = static_cast<MachineId>(rng.NextBounded(8));
      const Resources r{0.5 + rng.NextDouble(), 1.0};
      if (fine.CanFit(m, r)) {
        fine.Allocate(m, r);
        coarse.Allocate(m, r);
      }
    }
    // Build claims against the current snapshot.
    std::vector<TaskClaim> claims;
    for (int i = 0; i < 6; ++i) {
      const auto m = static_cast<MachineId>(rng.NextBounded(8));
      const Resources r{0.5, 1.0};
      claims.push_back(Claim(fine, m, r));
    }
    // Concurrent commits by "another scheduler".
    for (int i = 0; i < 4; ++i) {
      const auto m = static_cast<MachineId>(rng.NextBounded(8));
      const Resources r{0.5, 0.5};
      if (fine.CanFit(m, r)) {
        fine.Allocate(m, r);
        coarse.Allocate(m, r);
      }
    }
    const CommitResult rf = fine.Commit(claims, ConflictMode::kFineGrained,
                                        CommitMode::kIncremental);
    const CommitResult rc = coarse.Commit(claims, ConflictMode::kCoarseGrained,
                                          CommitMode::kIncremental);
    EXPECT_GE(rf.accepted, rc.accepted);
    EXPECT_TRUE(fine.CheckInvariants());
    EXPECT_TRUE(coarse.CheckInvariants());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictModePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// Property: after arbitrary random operations the availability index agrees
// with a brute-force scan.
class AvailabilityIndexPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AvailabilityIndexPropertyTest, IndexMatchesBruteForce) {
  Rng rng(GetParam());
  CellState cell(32, kMachine);
  cell.EnableAvailabilityIndex(16);
  std::vector<Resources> held(32, Resources::Zero());
  for (int op = 0; op < 500; ++op) {
    const auto m = static_cast<MachineId>(rng.NextBounded(32));
    const Resources r{0.25 + rng.NextDouble(), 0.5};
    if (rng.NextBool(0.6)) {
      if (cell.CanFit(m, r)) {
        cell.Allocate(m, r);
        held[m] += r;
      }
    } else if (!held[m].IsZero()) {
      cell.Free(m, held[m]);
      held[m] = Resources::Zero();
    }
  }
  // The index must visit every machine exactly once (zero minimum request),
  // in non-strictly increasing bucket order of effective availability
  // (min of CPU and memory headroom, in CPU units).
  std::vector<int> visits(32, 0);
  double last_bucket_key = -1.0;
  int bucket_tolerant_inversions = 0;
  const double mem_per_cpu = kMachine.mem_gb / kMachine.cpus;
  for (const MachineId id : AvailabilityWalk(cell, Resources::Zero())) {
    ++visits[id];
    const Resources avail = cell.machine(id).Available();
    const double key = std::min(avail.cpus, avail.mem_gb / mem_per_cpu);
    if (key + 0.25 < last_bucket_key) {  // allow intra-bucket disorder
      ++bucket_tolerant_inversions;
    }
    last_bucket_key = std::max(last_bucket_key, key);
  }
  for (int v : visits) {
    EXPECT_EQ(v, 1);
  }
  EXPECT_EQ(bucket_tolerant_inversions, 0);
  EXPECT_TRUE(cell.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvailabilityIndexPropertyTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(AvailabilityIndexTest, MinRequestSkipsTightMachines) {
  CellState cell(4, kMachine);
  cell.EnableAvailabilityIndex(16);
  cell.Allocate(0, Resources{3.9, 1.0});  // 0.1 cpu left
  cell.Allocate(1, Resources{2.0, 1.0});  // 2 cpus left
  const std::vector<MachineId> seen =
      AvailabilityWalk(cell, Resources{1.0, 0.0});
  // Machine 0 (0.1 cpu) is below the 1-cpu threshold bucket and not visited.
  for (MachineId id : seen) {
    EXPECT_NE(id, 0u);
  }
  // Machines 1..3 are all visited.
  EXPECT_EQ(seen.size(), 3u);
}

TEST(AvailabilityIndexTest, MemoryBoundMachinesSortTight) {
  // A machine with plenty of CPU but no memory must land in a low bucket, so
  // memory-hungry requests skip it via the effective key.
  CellState cell(3, kMachine);
  cell.EnableAvailabilityIndex(16);
  cell.Allocate(0, Resources{0.5, 15.5});  // 3.5 cpus, 0.5 GB left
  // Request needing 8 GB: machine 0's bucket (effective ~0.03 cpu) is skipped.
  const std::vector<MachineId> seen =
      AvailabilityWalk(cell, Resources{0.5, 8.0});
  for (MachineId id : seen) {
    EXPECT_NE(id, 0u);
  }
  EXPECT_EQ(seen.size(), 2u);
}

// --- struct-of-arrays first-fit sweep ---

TEST(SoAScanTest, FindFirstFitMatchesBruteForceAtBoundarySizes) {
  // FindFirstFit must return exactly the first machine in [begin, end) that
  // CanFit the request — across random sub-ranges, 8-wide chunk tails and
  // cells whose size is not a multiple of the chunk.
  for (const uint32_t size : {63u, 64u, 65u, 200u, 4095u, 4097u}) {
    CellState cell(size, kMachine);
    Rng rng(size * 31 + 1);
    std::vector<std::pair<MachineId, Resources>> allocs;
    for (int step = 0; step < 400; ++step) {
      const auto m = static_cast<MachineId>(rng.NextBounded(size));
      const Resources r{0.25 + rng.NextDouble(), 0.5 + 2.0 * rng.NextDouble()};
      if (rng.NextBool(0.7)) {
        if (cell.CanFit(m, r)) {
          cell.Allocate(m, r);
          allocs.emplace_back(m, r);
        }
      } else if (!allocs.empty()) {
        const size_t pick = rng.NextBounded(allocs.size());
        cell.Free(allocs[pick].first, allocs[pick].second);
        allocs[pick] = allocs.back();
        allocs.pop_back();
      }
      const Resources probe{0.25 + 3.75 * rng.NextDouble(),
                            0.5 + 15.5 * rng.NextDouble()};
      // Random sub-range, plus the full range every few steps.
      MachineId begin = 0;
      MachineId end = size;
      if (step % 3 != 0) {
        begin = static_cast<MachineId>(rng.NextBounded(size));
        end = begin + 1 +
              static_cast<MachineId>(rng.NextBounded(size - begin));
      }
      MachineId expected = kInvalidMachineId;
      for (MachineId i = begin; i < end; ++i) {
        if (cell.CanFit(i, probe)) {
          expected = i;
          break;
        }
      }
      ASSERT_EQ(cell.FindFirstFit(begin, end, probe), expected)
          << "size " << size << " step " << step << " range [" << begin << ", "
          << end << ")";
    }
  }
}

TEST(SoAScanTest, FindFirstFitClampsEndBeyondCell) {
  CellState cell(65, kMachine);
  // end past NumMachines must not over-read the arrays.
  EXPECT_EQ(cell.FindFirstFit(0, 1000, kTask), 0u);
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    while (cell.CanFit(m, kTask)) {
      cell.Allocate(m, kTask);
    }
  }
  EXPECT_EQ(cell.FindFirstFit(0, 1000, kTask), kInvalidMachineId);
  EXPECT_EQ(cell.FindFirstFit(64, 65, kTask), kInvalidMachineId);
  cell.Free(64, kTask);
  EXPECT_EQ(cell.FindFirstFit(0, 1000, kTask), 64u);
  EXPECT_EQ(cell.FindFirstFit(0, 64, kTask), kInvalidMachineId);
  EXPECT_TRUE(cell.CheckInvariants());
}

TEST(SoAScanTest, MidChunkRangeFindsLoneFitInLastPartialChunk) {
  // A fully packed cell with one freed machine near the end of a range that
  // starts and ends mid-chunk: the sweep must enter at an unaligned id, skip
  // whole no-fit chunks, and find the hit in the scalar tail it leaves over.
  CellState cell(64, kMachine);
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    while (cell.CanFit(m, kTask)) {
      cell.Allocate(m, kTask);
    }
  }
  // [3, 46): chunks [3, 11) ... [35, 43) are whole, [43, 46) is the tail.
  EXPECT_EQ(cell.FindFirstFit(3, 46, kTask), kInvalidMachineId);
  cell.Free(44, kTask);
  EXPECT_EQ(cell.FindFirstFit(3, 46, kTask), 44u);
  EXPECT_EQ(cell.FindFirstFit(3, 44, kTask), kInvalidMachineId);
  EXPECT_EQ(cell.FindFirstFit(44, 45, kTask), 44u);
  EXPECT_EQ(cell.FindFirstFit(45, 46, kTask), kInvalidMachineId);
  EXPECT_TRUE(cell.CheckInvariants());
}

TEST(SoAScanTest, HeadroomPolicyUsesUsableCapacity) {
  // Under the headroom policy the fit limit is the reduced usable capacity,
  // not raw capacity: a machine with room under kExact must be rejected once
  // headroom eats the slack — by FindFirstFit exactly as by CanFit.
  CellState cell(130, kMachine, FullnessPolicy::kHeadroom,
                 /*headroom_fraction=*/0.2);
  const Resources big{3.5, 1.0};  // fits 4.0 raw, not 3.2 usable
  EXPECT_FALSE(cell.CanFit(0, big));
  EXPECT_EQ(cell.FindFirstFit(0, cell.NumMachines(), big), kInvalidMachineId);
  const Resources ok{3.0, 1.0};
  EXPECT_EQ(cell.FindFirstFit(0, cell.NumMachines(), ok), 0u);
  cell.Allocate(0, ok);
  EXPECT_EQ(cell.FindFirstFit(0, cell.NumMachines(), ok), 1u);
  EXPECT_TRUE(cell.CheckInvariants());
}

}  // namespace
}  // namespace omega
