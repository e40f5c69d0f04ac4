// Differential test of the Mesos allocator's incremental offer ledger against
// the per-machine reference in tests/reference_mesos_allocator.h.
//
// Fuzzed small-cell Mesos runs (incremental and hoarding frameworks, machine
// failures, high churn, horizons long enough to leave ledger residues) are
// observed at every ledger event: each delivered offer must match the
// reference's offer machine for machine and bit for bit, and after every
// round and every return OfferedOn(m) must equal the reference ledger for
// every machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/mesos/mesos_simulation.h"
#include "src/workload/cluster_config.h"
#include "tests/bitwise_eq.h"
#include "tests/reference_mesos_allocator.h"

namespace omega {
namespace {

bool SameResources(const Resources& a, const Resources& b) {
  return SameBits(a.cpus, b.cpus) && SameBits(a.mem_gb, b.mem_gb);
}

// Thrown from the allocator's observer at the first divergence, so the run
// stops there instead of running on into the consequences.
struct Divergence : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Drives the reference from the allocator's ledger events and compares.
class OfferDiff {
 public:
  explicit OfferDiff(MesosSimulation& sim)
      : sim_(sim), ref_(sim.cell().NumMachines(), 2) {
    sim_.cell().SetCommitObserver(
        [this](std::span<const TaskClaim> claims, const CommitResult&) {
          claims_.assign(claims.begin(), claims.end());
        });
    sim_.allocator().SetOfferObserver(
        [this](const MesosFramework& fw, MesosAllocator::OfferEvent event) {
          OnEvent(fw, event);
        });
  }

  int64_t offers() const { return offers_; }
  int64_t slices() const { return slices_; }
  const ReferenceOfferLedger& ref() const { return ref_; }

 private:
  void OnEvent(const MesosFramework& fw, MesosAllocator::OfferEvent event) {
    const size_t f = &fw == &sim_.batch_framework() ? 0 : 1;
    if (event == MesosAllocator::OfferEvent::kOffered) {
      const std::vector<OfferSlice>& want = ref_.Round(f, sim_.cell());
      // Walk the offer the way the framework is about to, placing nothing.
      std::vector<OfferSlice> got;
      sim_.allocator().PlaceOnOffer(
          &fw, ~0u, [&](OfferSlice& slice, uint32_t /*wanted*/) {
            got.push_back(slice);
            return 0u;
          });
      ++offers_;
      slices_ += static_cast<int64_t>(got.size());
      for (size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
        if (i >= got.size() || i >= want.size() ||
            got[i].machine != want[i].machine ||
            !SameResources(got[i].resources, want[i].resources)) {
          std::ostringstream os;
          os << "offer " << offers_ << " to " << fw.name() << " at "
             << sim_.sim().Now() << ": slice " << i << " of " << got.size()
             << " (reference " << want.size() << ")";
          if (i < got.size()) {
            os << " got m" << got[i].machine << " " << got[i].resources;
          }
          if (i < want.size()) {
            os << " want m" << want[i].machine << " " << want[i].resources;
          }
          throw Divergence(os.str());
        }
      }
    } else {
      ref_.Used(f, claims_);
      claims_.clear();
      ref_.Return(f);
    }
    for (MachineId m = 0; m < sim_.cell().NumMachines(); ++m) {
      const Resources got = sim_.allocator().OfferedOn(m);
      if (!SameResources(got, ref_.OfferedOn(m))) {
        std::ostringstream os;
        os << "ledger of m" << m << " after "
           << (event == MesosAllocator::OfferEvent::kOffered ? "offer"
                                                              : "return")
           << " to " << fw.name() << " at " << sim_.sim().Now() << ": got "
           << got << " want " << ref_.OfferedOn(m);
        throw Divergence(os.str());
      }
    }
  }

  MesosSimulation& sim_;
  ReferenceOfferLedger ref_;
  std::vector<TaskClaim> claims_;  // of the commit the next return belongs to
  int64_t offers_ = 0;
  int64_t slices_ = 0;
};

struct FuzzCase {
  uint32_t machines;
  bool batch_hoards;
  bool service_hoards;
  bool failures;
  double batch_interarrival_secs;
  double service_tjob_secs;
  double horizon_hours;
};

std::string Describe(const FuzzCase& c) {
  std::ostringstream os;
  os << c.machines << " machines, hoarding batch=" << c.batch_hoards
     << " service=" << c.service_hoards << ", failures=" << c.failures
     << ", batch every " << c.batch_interarrival_secs << " s, t_job "
     << c.service_tjob_secs << " s, " << c.horizon_hours << " h";
  return os.str();
}

FuzzCase DrawCase(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  constexpr uint32_t kSizes[] = {16, 24, 40, 64, 100};
  constexpr double kTjobs[] = {0.1, 1.0, 10.0, 60.0};
  FuzzCase c;
  c.machines = kSizes[rng.NextBounded(5)];
  c.batch_hoards = rng.NextBool(0.3);
  c.service_hoards = rng.NextBool(0.5);
  c.failures = rng.NextBool(0.5);
  c.batch_interarrival_secs = rng.NextRange(0.3, 4.0);
  c.service_tjob_secs = kTjobs[rng.NextBounded(4)];
  c.horizon_hours = rng.NextRange(2.0, 6.0);
  return c;
}

struct DiffResult {
  std::string divergence;
  int64_t offers = 0;
  int64_t residue_slices = 0;
  int64_t overlap_slices = 0;
  OfferCounters counters;
};

DiffResult RunDiff(const FuzzCase& c, uint64_t seed) {
  ClusterConfig cfg = TestCluster(c.machines);
  cfg.batch.interarrival_mean_secs = c.batch_interarrival_secs;
  cfg.service.interarrival_mean_secs = 60.0;
  SimOptions opts;
  opts.horizon = Duration::FromSeconds(c.horizon_hours * 3600.0);
  opts.seed = seed;
  if (c.failures) {
    opts.machine_failure_rate_per_day = 12.0;
    opts.machine_repair_time = Duration::FromMinutes(4);
  }
  SchedulerConfig batch;
  batch.name = "batch";
  batch.max_attempts = 40;
  SchedulerConfig service;
  service.name = "service";
  service.max_attempts = 40;
  service.service_times.t_job = Duration::FromSeconds(c.service_tjob_secs);
  if (c.batch_hoards) {
    batch.commit_mode = CommitMode::kAllOrNothing;
  }
  if (c.service_hoards) {
    service.commit_mode = CommitMode::kAllOrNothing;
  }
  MesosSimulation sim(cfg, opts, batch, service);
  OfferDiff diff(sim);
  DiffResult r;
  try {
    sim.Run();
  } catch (const Divergence& d) {
    r.divergence = d.what();
    return r;
  }
  EXPECT_TRUE(sim.cell().CheckInvariants());
  r.offers = diff.offers();
  r.residue_slices = diff.ref().residue_slices();
  r.overlap_slices = diff.ref().overlap_slices();
  r.counters = sim.allocator().counters();
  // The last returns are in; the ledgers still agree.
  for (MachineId m = 0; m < sim.cell().NumMachines(); ++m) {
    if (!SameResources(sim.allocator().OfferedOn(m), diff.ref().OfferedOn(m))) {
      r.divergence = "final ledger of m" + std::to_string(m);
      break;
    }
  }
  return r;
}

class MesosOfferDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MesosOfferDiffTest, OffersAndLedgerMatchReference) {
  const uint64_t seed = GetParam();
  const FuzzCase c = DrawCase(seed);
  const DiffResult r = RunDiff(c, seed);
  EXPECT_EQ(r.divergence, "") << Describe(c);
  EXPECT_GT(r.offers, 100) << Describe(c);
  // Sets of clean machines changed hands; no round examined a machine twice.
  EXPECT_GT(r.counters.holds_transferred, 0) << Describe(c);
  EXPECT_LE(r.counters.machines_examined,
            r.counters.rounds * static_cast<int64_t>(c.machines))
      << Describe(c);
  EXPECT_EQ(r.counters.rounds, r.offers);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, MesosOfferDiffTest,
                         ::testing::Range<uint64_t>(1, 25));

// Each ledger state the allocator distinguishes shows up in the fuzz: slices
// on residue ledgers and on ledgers another offer holds, hoarding, failures.
TEST(MesosOfferDiffCoverageTest, FuzzReachesEveryLedgerState) {
  int64_t residue = 0;
  int64_t overlap = 0;
  int hoarding = 0;
  int failures = 0;
  for (uint64_t seed = 1; seed < 25; ++seed) {
    const FuzzCase c = DrawCase(seed);
    hoarding += (c.batch_hoards || c.service_hoards) ? 1 : 0;
    failures += c.failures ? 1 : 0;
    if (c.machines > 40) {
      continue;  // keep this sweep short; the parameterized cases run all
    }
    const DiffResult r = RunDiff(c, seed);
    residue += r.residue_slices;
    overlap += r.overlap_slices;
  }
  EXPECT_GT(residue, 0);
  EXPECT_GT(overlap, 0);
  EXPECT_GT(hoarding, 3);
  EXPECT_GT(failures, 3);
}

}  // namespace
}  // namespace omega
