// Multi-cell federation with eventually-consistent shared state.
//
// The paper's shared-state argument is intra-cell: schedulers race over one
// cell's state with optimistic concurrency. This layer lifts the same pattern
// one level up, to a fleet of N independent Omega cells behind a front-door
// submitter. The front door routes each arriving job using *stale* per-cell
// summaries (free capacity, recent conflict rate, queue depth) that the cells
// publish by periodic gossip with a configurable delivery delay;
// on rejection or timeout inside a cell, the job is withdrawn and spilled to
// the next-best cell, paying an inter-cell transfer cost. Gossip publication,
// gossip delivery, job transfer, and the pending-timeout watchdog are all
// first-class events on one master discrete-event queue shared by every cell
// (ClusterSimulation::UseSharedSimulator), so the N-cell interleaving is a
// single deterministic event order: results are bit-identical for any sweep
// thread count. Same-time events fire in insertion order, whichever cell or
// federation stream pushed them. See DESIGN.md §13.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/omega/omega_scheduler.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_recorder.h"

namespace omega {

// How the front door picks a cell for a job.
enum class FederationRouting : uint8_t {
  // Highest score among the cells the job has not tried yet, where
  //   score = min(free_cpu, free_mem) / (1 + 4 * conflicts)
  // computed from the latest *delivered* summary (or the live state when
  // gossip_interval is zero). Ties break to the lowest cell index; cells with
  // no delivered summary yet fall back to the static hash below.
  kLeastLoaded,
  // Job-id hash over the untried cells: ignores summaries entirely. This is
  // the static-partitioning baseline — a fleet of N cells that never share
  // state.
  kStaticHash,
};

// What happens when a cell rejects a job (abandonment / admission reject) or
// sits on it past the pending timeout.
enum class SpilloverPolicy : uint8_t {
  kNone,      // the job is lost (counted in FederationMetrics::jobs_lost)
  kNextBest,  // withdraw and re-route to the best untried cell
};

struct FederationOptions {
  uint32_t num_cells = 4;  // 1..64 (the tried-cell set is a 64-bit mask)

  FederationRouting routing = FederationRouting::kLeastLoaded;
  SpilloverPolicy spillover = SpilloverPolicy::kNextBest;

  // Each cell publishes a summary every gossip_interval; the publication
  // becomes visible to the front door gossip_delay later, so a cell's
  // summaries arrive in publish order. Zero interval disables gossip and
  // gives the front door *live* summaries — the fresh-state limit.
  // Duration::Max() delay means published-but-never-delivered — the
  // no-shared-knowledge limit, which makes kLeastLoaded degrade exactly to
  // the static hash.
  Duration gossip_interval = Duration::FromSeconds(15);
  Duration gossip_delay = Duration::FromSeconds(1);

  // A job that has not fully scheduled within pending_timeout of arriving at
  // its cell is withdrawn and spilled (kNextBest only). Duration::Max()
  // disables the watchdog; rejections still spill.
  Duration pending_timeout = Duration::FromMinutes(10);
};

// One cell's gossiped self-description. `published_at` is when the cell
// snapshotted its state; `received_at` when the front door learned of it —
// the difference is the staleness the routing decision acts on.
struct CellSummary {
  uint32_t cell = 0;
  double free_cpu_fraction = 0.0;
  double free_mem_fraction = 0.0;
  // Conflicted / (accepted + conflicted) task claims in the window since the
  // cell's previous publication (cumulative for live summaries).
  double conflict_fraction = 0.0;
  int64_t queued_jobs = 0;
  SimTime published_at;
  SimTime received_at;
  bool valid = false;
};

// Front-door and gossip accounting. All counters advance in master-queue
// event order, so they are bit-identical across sweep thread counts.
struct FederationMetrics {
  int64_t jobs_routed = 0;           // front-door arrivals
  int64_t spills = 0;                // cell-to-cell re-routes
  int64_t spill_timeouts = 0;        //   ...triggered by the pending watchdog
  int64_t spill_rejections = 0;      //   ...triggered by abandonment/reject
  int64_t jobs_fully_scheduled = 0;  // reached FullyScheduled in some cell
  // Jobs the front door gave up on: an abandonment/reject or a pending
  // timeout with no spill budget or no untried cell left (or no spillover).
  // A timed-out job stays queued in its last cell and may still run there;
  // the front door no longer tracks it.
  int64_t jobs_lost = 0;
  int64_t summaries_published = 0;
  int64_t summaries_delivered = 0;
  int64_t hash_fallback_routes = 0;  // decisions made with no usable summary
  // Gossip propagation delay (received_at - published_at), per delivery.
  RunningStats delivery_latency_secs;
  // Age of the chosen cell's summary at each summary-based routing decision.
  RunningStats routing_staleness_secs;
  // Submission to FullyScheduled, across cells and spills; the spillover
  // subset covers only jobs that hopped at least once.
  Cdf time_to_scheduled_secs;
  Cdf spillover_latency_secs;
};

class FederationSim;

// One member cell: a full OmegaSimulation (a batch and a service scheduler
// racing over the cell's shared state) whose events run on the
// federation's master queue and whose per-job terminal transitions are
// reported back to the front door for spillover.
class FederatedCell final : public OmegaSimulation {
 public:
  // The cell's events run on `master`, which must outlive the cell.
  FederatedCell(FederationSim& fed, uint32_t index, Simulator& master,
                const ClusterConfig& config, const SimOptions& options,
                const SchedulerConfig& batch_config,
                const SchedulerConfig& service_config);

  void OnJobFullyScheduled(const JobPtr& job) override;
  void OnJobAbandoned(const JobPtr& job) override;

  uint32_t index() const { return index_; }

 private:
  FederationSim& fed_;
  uint32_t index_;
};

// The federation harness: N cells, one master event queue, the front-door
// router, and the gossip machinery.
//
// Determinism: cell i draws its workload-independent randomness from
// substream i of the base seed; the fleet arrival stream and the arrival
// sampler use substreams N and N+1. Cells are
// prepared in index order on the master queue, so the full event interleaving
// is a pure function of (options, fed_options, seed).
class FederationSim {
 public:
  FederationSim(const ClusterConfig& cell_config, const SimOptions& options,
                const SchedulerConfig& batch_config,
                const SchedulerConfig& service_config,
                const FederationOptions& fed_options);

  // Prepares every cell on the master queue, starts the fleet arrival stream
  // and gossip, and runs to the horizon.
  void Run();

  // Attaches one recorder to every cell (tracks are namespaced "cell<i>/...").
  // Call before Run().
  void SetTraceRecorder(TraceRecorder* recorder);

  uint32_t num_cells() const { return static_cast<uint32_t>(cells_.size()); }
  FederatedCell& cell(uint32_t i) { return *cells_[i]; }
  const FederatedCell& cell(uint32_t i) const { return *cells_[i]; }
  Simulator& sim() { return sim_; }
  const FederationOptions& fed_options() const { return fed_options_; }
  const SimOptions& options() const { return options_; }
  const FederationMetrics& metrics() const { return metrics_; }
  SimTime EndTime() const { return SimTime::Zero() + options_.horizon; }

  // The summary the front door would compute from the cell's state right now
  // (what gossip snapshots at publication; what routing uses when
  // gossip_interval is zero). Conflict fraction is cumulative here.
  CellSummary LiveSummary(uint32_t cell) const;

  // --- fleet-level aggregates (after Run()) ---

  int64_t JobsSubmittedTotal() const;  // sum over cells (spills recount)
  int64_t TotalJobsAbandoned() const;  // sum over cells' scheduler metrics
  double MeanCellCpuUtilization() const;
  double CpuUtilizationSkew() const;  // max - min across cells
  // Mean over cells of the cumulative task-claim conflict fraction.
  double FleetConflictFraction() const;

  // --- callbacks from FederatedCell (not for external use) ---
  void OnCellJobScheduled(uint32_t cell, const JobPtr& job);
  void OnCellJobAbandoned(uint32_t cell, const JobPtr& job);

 private:
  // One in-flight job's front-door bookkeeping, alive from routing until it
  // fully schedules or is lost.
  struct PendingJob {
    JobPtr job;              // current incarnation (spills re-issue a clone)
    uint32_t cell = 0;       // where that incarnation was sent
    uint32_t spills = 0;
    uint64_t tried_mask = 0;  // cells that already rejected/timed out
    uint32_t epoch = 0;       // bumped per spill; stale timer events no-op
    SimTime first_submit;     // original front-door arrival
  };

  void ScheduleNextArrival(JobType type);
  void RouteNewJob(const JobPtr& job);
  // Best untried cell per the routing policy. Sets *used_summary and
  // *staleness_secs when a gossiped/live summary drove the decision.
  uint32_t ChooseCell(const Job& job, uint64_t tried_mask, bool* used_summary,
                      double* staleness_secs) const;
  // Transfer-delay hop: delivers the pending job's current incarnation to its
  // cell, arming the pending-timeout watchdog.
  void SendToCell(PendingJob& pending);
  void DeliverJob(JobId id, uint32_t epoch);
  // Withdraws the current incarnation and re-routes a clone of its remaining
  // work, or counts the job lost if policy/budget/candidates forbid it.
  void SpillOrLose(PendingJob& pending, bool from_timeout);
  void SchedulePublish(uint32_t cell);
  void PublishSummary(uint32_t cell);

  ClusterConfig cell_config_;
  SimOptions options_;
  FederationOptions fed_options_;

  Simulator sim_;  // master queue; must outlive the cells below
  std::vector<std::unique_ptr<FederatedCell>> cells_;
  WorkloadGenerator generator_;  // fleet arrival stream (substream N)
  Rng arrival_rng_;              // interarrival gaps (substream N+1)

  std::vector<CellSummary> delivered_;
  // Per-cell (accepted, conflicted) totals at the previous publication, for
  // the conflict fraction over the gossip window.
  std::vector<std::pair<int64_t, int64_t>> published_counters_;

  FederationMetrics metrics_;
  // Lookup only — iteration order never observed (det-unordered-iter,
  // DESIGN.md §9).
  std::unordered_map<JobId, PendingJob> pending_;
};

}  // namespace omega
