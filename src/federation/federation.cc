#include "src/federation/federation.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/distributions.h"
#include "src/common/logging.h"

namespace omega {
namespace {

// Same job-id mixer the Omega harness uses to shard batch work (§4.3).
constexpr uint64_t kHashMult = 0x9e3779b97f4a7c15ULL;

// Weight of the advertised conflict fraction in the routing score.
constexpr double kConflictPenalty = 4.0;

// Inter-cell transfer cost: every routed job (front door -> cell, and
// spilled cell -> cell) arrives this much after the routing decision.
constexpr Duration kTransferDelay = Duration::FromMillis(50);

// Maximum cell-to-cell hops per job (on top of the initial placement).
constexpr uint32_t kMaxSpills = 3;

// Disables a cell's own arrival streams: every job in a federation enters
// through the front door.
SimOptions CellOptions(const SimOptions& options, uint64_t base_seed,
                       uint32_t cell_index) {
  SimOptions cell = options;
  cell.seed = SubstreamSeed(base_seed, cell_index);
  cell.batch_rate_multiplier = 0.0;
  cell.service_rate_multiplier = 0.0;
  return cell;
}

// Accumulated (accepted, conflicted) task claims across a cell's schedulers.
std::pair<int64_t, int64_t> CellClaimCounters(const FederatedCell& cell) {
  int64_t accepted = 0;
  int64_t conflicted = 0;
  for (const QueueScheduler* scheduler : cell.schedulers()) {
    accepted += scheduler->metrics().TasksAccepted();
    conflicted += scheduler->metrics().TasksConflicted();
  }
  return {accepted, conflicted};
}

double ConflictFraction(int64_t accepted, int64_t conflicted) {
  const int64_t total = accepted + conflicted;
  return total > 0 ? static_cast<double>(conflicted) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace

FederatedCell::FederatedCell(FederationSim& fed, uint32_t index,
                             Simulator& master, const ClusterConfig& config,
                             const SimOptions& options,
                             const SchedulerConfig& batch_config,
                             const SchedulerConfig& service_config)
    : OmegaSimulation(config, options, batch_config, service_config),
      fed_(fed),
      index_(index) {
  // The base constructors schedule nothing, so the repoint is still legal.
  UseSharedSimulator(&master);
  SetTraceScope("cell" + std::to_string(index) + "/");
}

void FederatedCell::OnJobFullyScheduled(const JobPtr& job) {
  fed_.OnCellJobScheduled(index_, job);
}

void FederatedCell::OnJobAbandoned(const JobPtr& job) {
  fed_.OnCellJobAbandoned(index_, job);
}

FederationSim::FederationSim(const ClusterConfig& cell_config,
                             const SimOptions& options,
                             const SchedulerConfig& batch_config,
                             const SchedulerConfig& service_config,
                             const FederationOptions& fed_options)
    : cell_config_(cell_config),
      options_(options),
      fed_options_(fed_options),
      sim_(EndTime()),
      generator_(cell_config, GeneratorOptions{},
                 SubstreamSeed(options.seed, fed_options.num_cells)),
      arrival_rng_(SubstreamSeed(options.seed, fed_options.num_cells + 1)) {
  OMEGA_CHECK(fed_options_.num_cells >= 1 && fed_options_.num_cells <= 64)
      << "tried-cell bookkeeping is a 64-bit mask";
  cells_.reserve(fed_options_.num_cells);
  for (uint32_t i = 0; i < fed_options_.num_cells; ++i) {
    cells_.push_back(std::make_unique<FederatedCell>(
        *this, i, sim_, cell_config_,
        CellOptions(options_, options_.seed, i), batch_config,
        service_config));
  }
  delivered_.resize(fed_options_.num_cells);
  published_counters_.resize(fed_options_.num_cells, {0, 0});
}

void FederationSim::Run() {
  // Cell-index order fixes the initial event sequence on the master queue;
  // same-time events then fire in insertion order.
  for (auto& cell : cells_) {
    cell->PrepareRun();
  }
  ScheduleNextArrival(JobType::kBatch);
  ScheduleNextArrival(JobType::kService);
  if (fed_options_.gossip_interval > Duration::Zero()) {
    for (uint32_t i = 0; i < num_cells(); ++i) {
      SchedulePublish(i);
    }
  }
  sim_.RunUntil(EndTime());
}

void FederationSim::SetTraceRecorder(TraceRecorder* recorder) {
  for (auto& cell : cells_) {
    cell->SetTraceRecorder(recorder);
  }
}

void FederationSim::ScheduleNextArrival(JobType type) {
  const WorkloadParams& params =
      type == JobType::kBatch ? cell_config_.batch : cell_config_.service;
  const double multiplier =
      (type == JobType::kBatch ? options_.batch_rate_multiplier
                               : options_.service_rate_multiplier) *
      static_cast<double>(num_cells());
  if (multiplier <= 0.0) {
    return;
  }
  // The fleet stream carries N cells' worth of load: the per-cell
  // interarrival mean divided by N (plus the usual rate multipliers).
  ExponentialDist interarrival(params.interarrival_mean_secs / multiplier);
  const Duration gap = Duration::FromSeconds(interarrival.Sample(arrival_rng_));
  sim_.ScheduleAt(sim_.Now() + gap, [this, type] {
    auto job = std::make_shared<Job>(generator_.GenerateJob(type, sim_.Now()));
    RouteNewJob(job);
    ScheduleNextArrival(type);
  });
}

CellSummary FederationSim::LiveSummary(uint32_t cell) const {
  const FederatedCell& c = *cells_[cell];
  CellSummary s;
  s.cell = cell;
  const Resources available = c.cell().TotalAvailable();
  const Resources capacity = c.cell().TotalCapacity();
  s.free_cpu_fraction =
      capacity.cpus > 0.0 ? available.cpus / capacity.cpus : 0.0;
  s.free_mem_fraction =
      capacity.mem_gb > 0.0 ? available.mem_gb / capacity.mem_gb : 0.0;
  const auto [accepted, conflicted] = CellClaimCounters(c);
  s.conflict_fraction = ConflictFraction(accepted, conflicted);
  for (const QueueScheduler* scheduler : c.schedulers()) {
    s.queued_jobs += static_cast<int64_t>(scheduler->QueueDepth());
  }
  s.published_at = sim_.Now();
  s.received_at = sim_.Now();
  s.valid = true;
  return s;
}

void FederationSim::SchedulePublish(uint32_t cell) {
  sim_.ScheduleAt(sim_.Now() + fed_options_.gossip_interval, [this, cell] {
    PublishSummary(cell);
    SchedulePublish(cell);
  });
}

void FederationSim::PublishSummary(uint32_t cell) {
  CellSummary summary = LiveSummary(cell);
  // Rewrite the conflict fraction over the window since the previous
  // publication: routing should react to *recent* contention, not the
  // whole-run average.
  const auto [accepted, conflicted] = CellClaimCounters(*cells_[cell]);
  auto& last = published_counters_[cell];
  summary.conflict_fraction =
      ConflictFraction(accepted - last.first, conflicted - last.second);
  last = {accepted, conflicted};
  ++metrics_.summaries_published;
  if (fed_options_.gossip_delay == Duration::Max()) {
    return;  // published into the void: the front door never learns of it
  }
  sim_.ScheduleAfter(fed_options_.gossip_delay, [this, summary]() mutable {
    summary.received_at = sim_.Now();
    metrics_.delivery_latency_secs.Add(
        (summary.received_at - summary.published_at).ToSeconds());
    ++metrics_.summaries_delivered;
    // A constant delay delivers a cell's summaries in publish order.
    delivered_[summary.cell] = summary;
  });
}

uint32_t FederationSim::ChooseCell(const Job& job, uint64_t tried_mask,
                                   bool* used_summary,
                                   double* staleness_secs) const {
  *used_summary = false;
  *staleness_secs = 0.0;
  if (fed_options_.routing == FederationRouting::kLeastLoaded) {
    const bool live = fed_options_.gossip_interval == Duration::Zero();
    double best_score = -1.0;
    int32_t best = -1;
    SimTime best_published;
    for (uint32_t i = 0; i < num_cells(); ++i) {
      if ((tried_mask >> i) & 1) {
        continue;
      }
      const CellSummary summary = live ? LiveSummary(i) : delivered_[i];
      if (!summary.valid) {
        continue;
      }
      const double headroom =
          std::min(summary.free_cpu_fraction, summary.free_mem_fraction);
      const double score =
          headroom /
          (1.0 + kConflictPenalty * summary.conflict_fraction);
      // Strict > with ascending scan: ties break to the lowest cell index.
      if (score > best_score) {
        best_score = score;
        best = static_cast<int32_t>(i);
        best_published = summary.published_at;
      }
    }
    if (best >= 0) {
      *used_summary = true;
      *staleness_secs = (sim_.Now() - best_published).ToSeconds();
      return static_cast<uint32_t>(best);
    }
  }
  // Static hash, or no usable summary (e.g. gossip never delivered): spread
  // by job id over the untried cells.
  uint32_t candidates[64];
  uint32_t num_candidates = 0;
  for (uint32_t i = 0; i < num_cells(); ++i) {
    if (((tried_mask >> i) & 1) == 0) {
      candidates[num_candidates++] = i;
    }
  }
  OMEGA_CHECK(num_candidates > 0);
  return candidates[(job.id * kHashMult) % num_candidates];
}

void FederationSim::RouteNewJob(const JobPtr& job) {
  ++metrics_.jobs_routed;
  bool used_summary = false;
  double staleness = 0.0;
  const uint32_t cell = ChooseCell(*job, /*tried_mask=*/0, &used_summary,
                                   &staleness);
  if (used_summary) {
    metrics_.routing_staleness_secs.Add(staleness);
  } else {
    ++metrics_.hash_fallback_routes;
  }
  PendingJob pending;
  pending.job = job;
  pending.cell = cell;
  pending.first_submit = sim_.Now();
  auto [it, inserted] = pending_.emplace(job->id, std::move(pending));
  OMEGA_CHECK(inserted) << "duplicate job id " << job->id;
  SendToCell(it->second);
}

void FederationSim::SendToCell(PendingJob& pending) {
  sim_.ScheduleAfter(kTransferDelay,
                     [this, id = pending.job->id, epoch = pending.epoch] {
                       DeliverJob(id, epoch);
                     });
}

void FederationSim::DeliverJob(JobId id, uint32_t epoch) {
  auto it = pending_.find(id);
  if (it == pending_.end() || it->second.epoch != epoch) {
    return;  // resolved or re-routed while in flight
  }
  PendingJob& pending = it->second;
  // The cell measures wait from its own arrival; the front door keeps the
  // original submission in first_submit.
  pending.job->submit_time = sim_.Now();
  if (fed_options_.spillover != SpilloverPolicy::kNone &&
      fed_options_.pending_timeout > Duration::Zero() &&
      fed_options_.pending_timeout != Duration::Max()) {
    sim_.ScheduleAfter(fed_options_.pending_timeout, [this, id, epoch] {
      auto timed_out = pending_.find(id);
      if (timed_out == pending_.end() || timed_out->second.epoch != epoch) {
        return;  // scheduled, lost, or already spilled again
      }
      SpillOrLose(timed_out->second, /*from_timeout=*/true);
    });
  }
  // Copies: InjectJob may re-enter OnCellJobAbandoned synchronously
  // (admission reject), and a terminal SpillOrLose erases the pending entry
  // mid-call.
  const uint32_t cell_index = pending.cell;
  const JobPtr job = pending.job;
  cells_[cell_index]->InjectJob(job);
}

void FederationSim::SpillOrLose(PendingJob& pending, bool from_timeout) {
  pending.tried_mask |= uint64_t{1} << pending.cell;
  const uint64_t all_cells = num_cells() >= 64
                                 ? ~uint64_t{0}
                                 : (uint64_t{1} << num_cells()) - 1;
  const bool can_spill = fed_options_.spillover == SpilloverPolicy::kNextBest &&
                         pending.spills < kMaxSpills &&
                         (pending.tried_mask & all_cells) != all_cells;
  if (!can_spill) {
    ++metrics_.jobs_lost;
    pending_.erase(pending.job->id);
    return;
  }
  // Withdraw the current incarnation: if it is still queued, the scheduler
  // drops it at the queue head; if it is mid-attempt, that attempt's placed
  // tasks land but no further retries happen (QueueScheduler checks the
  // flag in CompleteAttempt). The remaining work travels as a clone so the
  // old cell's bookkeeping on the withdrawn object stays untouched.
  pending.job->cancelled = true;
  auto clone = std::make_shared<Job>(*pending.job);
  clone->num_tasks = pending.job->TasksRemaining();
  clone->tasks_scheduled = 0;
  clone->scheduling_attempts = 0;
  clone->conflicted_attempts = 0;
  clone->first_attempt_time.reset();
  clone->abandoned = false;
  clone->cancelled = false;
  bool used_summary = false;
  double staleness = 0.0;
  const uint32_t next =
      ChooseCell(*clone, pending.tried_mask, &used_summary, &staleness);
  if (used_summary) {
    metrics_.routing_staleness_secs.Add(staleness);
  } else {
    ++metrics_.hash_fallback_routes;
  }
  pending.job = std::move(clone);
  pending.cell = next;
  ++pending.spills;
  ++pending.epoch;  // invalidates the in-flight watchdog and delivery events
  ++metrics_.spills;
  if (from_timeout) {
    ++metrics_.spill_timeouts;
  } else {
    ++metrics_.spill_rejections;
  }
  SendToCell(pending);
}

void FederationSim::OnCellJobScheduled(uint32_t cell, const JobPtr& job) {
  (void)cell;
  auto it = pending_.find(job->id);
  if (it == pending_.end() || it->second.job.get() != job.get()) {
    return;  // a withdrawn incarnation finishing late; the clone supersedes it
  }
  const double secs = (sim_.Now() - it->second.first_submit).ToSeconds();
  metrics_.time_to_scheduled_secs.Add(secs);
  if (it->second.spills > 0) {
    metrics_.spillover_latency_secs.Add(secs);
  }
  ++metrics_.jobs_fully_scheduled;
  pending_.erase(it);
}

void FederationSim::OnCellJobAbandoned(uint32_t cell, const JobPtr& job) {
  (void)cell;
  auto it = pending_.find(job->id);
  if (it == pending_.end() || it->second.job.get() != job.get()) {
    return;
  }
  SpillOrLose(it->second, /*from_timeout=*/false);
}

int64_t FederationSim::JobsSubmittedTotal() const {
  int64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell->JobsSubmittedTotal();
  }
  return total;
}

int64_t FederationSim::TotalJobsAbandoned() const {
  int64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell->TotalJobsAbandoned();
  }
  return total;
}

double FederationSim::MeanCellCpuUtilization() const {
  double sum = 0.0;
  for (const auto& cell : cells_) {
    sum += cell->cell().CpuUtilization();
  }
  return sum / static_cast<double>(num_cells());
}

double FederationSim::CpuUtilizationSkew() const {
  double lo = 1.0;
  double hi = 0.0;
  for (const auto& cell : cells_) {
    const double u = cell->cell().CpuUtilization();
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  return hi - lo;
}

double FederationSim::FleetConflictFraction() const {
  double sum = 0.0;
  for (const auto& cell : cells_) {
    const auto [accepted, conflicted] = CellClaimCounters(*cell);
    sum += ConflictFraction(accepted, conflicted);
  }
  return sum / static_cast<double>(num_cells());
}

}  // namespace omega
