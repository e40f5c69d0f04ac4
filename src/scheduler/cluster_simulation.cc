#include "src/scheduler/cluster_simulation.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/scheduler/placement.h"
#include "src/scheduler/queue_scheduler.h"

namespace omega {

ClusterSimulation::ClusterSimulation(const ClusterConfig& config,
                                     const SimOptions& options,
                                     GeneratorOptions generator_options)
    : config_(config),
      options_(options),
      owned_sim_(std::make_unique<Simulator>(EndTime())),
      sim_(owned_sim_.get()),
      cell_(BuildMachineCapacities(config), options.fullness,
            options.headroom_fraction, config.machines_per_failure_domain),
      generator_(config, generator_options, options.seed),
      rng_(options.seed ^ 0xabcdef1234567890ULL),
      track_running_tasks_(options.machine_failure_rate_per_day > 0.0) {
  if (generator_options.generate_constraints) {
    auto attributes =
        GenerateMachineAttributes(config.num_machines, generator_options,
                                  options.seed ^ 0x5151515151515151ULL);
    for (uint32_t m = 0; m < config.num_machines; ++m) {
      cell_.SetAttributes(m, std::move(attributes[m]));
    }
  }
}

void ClusterSimulation::PlaceInitialFill() {
  // Fill each machine to an independent random target level whose mean is the
  // configured initial utilization. This reproduces the availability spread
  // of a live cell (tightly packed machines coexist with nearly empty ones);
  // a uniform spread fill would leave no machine with room for large tasks.
  const double target = config_.initial_utilization;
  const double lo = std::max(0.05, target - 0.45);
  const double hi = std::min(0.95, target + (target - lo));
  // The fill places 6.0 tasks per machine on cluster B and on the
  // 100,000-machine cell, and queues an end event for those that end inside
  // the horizon. Sizing the queue and fill_resources_ once, for eight per
  // machine, spares the fill a chain of doubling reallocations; untouched
  // pages cost no RSS, and the reserved size sets glibc's trim threshold
  // (EXPERIMENTS.md, "Sized initial fill").
  const size_t expected = size_t{8} * cell_.NumMachines();
  sim_->Reserve(sim_->PendingEvents() + expected);
  if (!track_running_tasks_) {
    fill_resources_.reserve(fill_resources_.size() + expected);
  }
  for (MachineId m = 0; m < cell_.NumMachines(); ++m) {
    const double machine_target = rng_.NextRange(lo, hi);
    const Resources cap = cell_.Capacity(m);
    // Bail out of a machine after a few tasks in a row fail to fit.
    int misses = 0;
    while (cell_.Allocated(m).cpus < machine_target * cap.cpus &&
           misses < 8) {
      const WorkloadGenerator::InitialTask task =
          generator_.SampleInitialTask();
      if (!cell_.CanFit(m, task.resources)) {
        ++misses;
        continue;
      }
      cell_.Allocate(m, task.resources);
      const SimTime end = SimTime::Zero() + task.remaining;
      if (track_running_tasks_) {
        const TaskClaim claim{m, task.resources, 0};
        const uint64_t task_id =
            registry_.Add(m, task.resources, task.precedence);
        sim_->ScheduleAt(end, [this, claim, task_id] {
          // A failure or an eviction already removed and freed the task.
          if (!registry_.Remove(task_id)) {
            return;
          }
          cell_.Free(claim.machine, claim.resources);
          OnMachineChanged(claim.machine, /*wake=*/true);
        });
      } else {
        // A 16-byte capture fits std::function's inline buffer, so the end
        // event allocates no closure. A task that outlives the horizon
        // queues no end event and needs no record.
        const auto fill = static_cast<uint32_t>(fill_resources_.size());
        if (sim_->ScheduleAt(end, [this, m, fill] {
              cell_.Free(m, fill_resources_[fill]);
              OnMachineChanged(m, /*wake=*/true);
            })) {
          fill_resources_.push_back(task.resources);
        }
      }
      misses = 0;
    }
  }
  OMEGA_LOG(kDebug) << "initial fill: cpu=" << cell_.CpuUtilization()
                    << " mem=" << cell_.MemUtilization();
}

void ClusterSimulation::CountSubmission(JobType type) {
  if (type == JobType::kBatch) {
    ++batch_submitted_;
  } else {
    ++service_submitted_;
  }
}

void ClusterSimulation::ScheduleNextArrival(JobType type) {
  const WorkloadParams& params =
      type == JobType::kBatch ? config_.batch : config_.service;
  const double multiplier = type == JobType::kBatch
                                ? options_.batch_rate_multiplier
                                : options_.service_rate_multiplier;
  if (multiplier <= 0.0) {
    return;
  }
  ExponentialDist interarrival(params.interarrival_mean_secs / multiplier);
  const Duration gap = Duration::FromSeconds(interarrival.Sample(rng_));
  sim_->ScheduleAt(sim_->Now() + gap, [this, type] {
    auto job = std::make_shared<Job>(generator_.GenerateJob(type, sim_->Now()));
    InjectJob(job);
    ScheduleNextArrival(type);
  });
}

void ClusterSimulation::SetTraceRecorder(TraceRecorder* recorder) {
  trace_ = recorder;
  if (recorder == nullptr) {
    cell_.SetCommitObserver(nullptr);
    return;
  }
  cell_.SetCommitObserver(
      [this](std::span<const TaskClaim> claims, const CommitResult& result) {
        trace_->CellCommit(sim_->Now(), static_cast<int64_t>(claims.size()),
                           result.accepted, result.conflicted,
                           HarnessTraceTrack());
      });
}

void ClusterSimulation::ScheduleUtilizationSample() {
  if (options_.utilization_sample_interval.micros() <= 0) {
    return;
  }
  utilization_series_.push_back(UtilizationSample{
      sim_->Now().ToHours(), cell_.CpuUtilization(), cell_.MemUtilization()});
  sim_->ScheduleAt(sim_->Now() + options_.utilization_sample_interval,
                   [this] { ScheduleUtilizationSample(); });
}

void ClusterSimulation::Run() {
  PrepareRun();
  sim_->RunUntil(EndTime());
}

void ClusterSimulation::PrepareRun() { Prepare(nullptr); }

void ClusterSimulation::RunTrace(std::vector<Job> trace) {
  Prepare(&trace);
  sim_->RunUntil(EndTime());
}

void ClusterSimulation::Prepare(std::vector<Job>* trace) {
  PlaceInitialFill();
  OnSimulationStart();
  if (trace == nullptr) {
    ScheduleNextArrival(JobType::kBatch);
    ScheduleNextArrival(JobType::kService);
  } else {
    for (Job& job : *trace) {
      auto ptr = std::make_shared<Job>(std::move(job));
      sim_->ScheduleAt(ptr->submit_time, [this, ptr] { InjectJob(ptr); });
    }
  }
  ScheduleUtilizationSample();
  ScheduleNextMachineFailure();
}

void ClusterSimulation::TrackRunningTasks() {
  OMEGA_CHECK(sim_->PendingEvents() == 0)
      << "TrackRunningTasks must be called before anything is scheduled";
  track_running_tasks_ = true;
}

void ClusterSimulation::UseSharedSimulator(Simulator* sim) {
  OMEGA_CHECK(sim != nullptr) << "UseSharedSimulator needs a simulator";
  OMEGA_CHECK(sim->horizon() == EndTime())
      << "shared simulator's horizon " << sim->horizon()
      << " differs from the cell's " << EndTime();
  OMEGA_CHECK(owned_sim_ == nullptr || owned_sim_->PendingEvents() == 0)
      << "UseSharedSimulator must be called before any event is scheduled";
  sim_ = sim;
  owned_sim_.reset();
}

void ClusterSimulation::InjectJob(const JobPtr& job) {
  CountSubmission(job->type);
  if (trace_ != nullptr) {
    trace_->JobSubmit(sim_->Now(), job->id, job->type == JobType::kService,
                      job->num_tasks, HarnessTraceTrack());
  }
  SubmitJob(job);
}

int64_t ClusterSimulation::TotalJobsAbandoned() const {
  int64_t total = 0;
  for (const QueueScheduler* scheduler : schedulers_) {
    total += scheduler->metrics().JobsAbandonedTotal();
  }
  return total;
}

uint16_t ClusterSimulation::HarnessTraceTrack() {
  if (harness_track_ < 0) {
    harness_track_ = trace_scope_.empty()
                         ? 0
                         : trace_->RegisterTrack(trace_scope_ + "cluster");
  }
  return static_cast<uint16_t>(harness_track_);
}

void ClusterSimulation::ScheduleNextMachineFailure() {
  if (options_.machine_failure_rate_per_day <= 0.0) {
    return;
  }
  // Cluster-wide failures form a Poisson process with rate
  // machines * per-machine-rate.
  const double cluster_rate_per_sec = options_.machine_failure_rate_per_day *
                                      cell_.NumMachines() / 86400.0;
  ExponentialDist gap(1.0 / cluster_rate_per_sec);
  const SimTime when = sim_->Now() + Duration::FromSeconds(gap.Sample(rng_));
  sim_->ScheduleAt(when, [this] {
    FailMachine(static_cast<MachineId>(rng_.NextBounded(cell_.NumMachines())));
    ScheduleNextMachineFailure();
  });
}

void ClusterSimulation::FailMachine(MachineId machine) {
  OMEGA_CHECK(track_running_tasks_)
      << "machine failures need the running-task registry";
  if (downtime_reservation_.empty()) {
    downtime_reservation_.assign(cell_.NumMachines(), Resources::Zero());
    machine_down_.assign(cell_.NumMachines(), 0);
  }
  if (machine_down_[machine] != 0) {
    return;  // already down
  }
  machine_down_[machine] = 1;
  // Kill every task running on the machine; their work is lost and their
  // owners observe the failure only through the freed state (the paper notes
  // failures "only generate a small load on the scheduler").
  int64_t killed_here = 0;
  for (const RunningTask& task : registry_.TasksOn(machine)) {
    KillTask(task);
    ++tasks_killed_by_failures_;
    ++killed_here;
  }
  if (trace_ != nullptr) {
    trace_->MachineFailure(sim_->Now(), machine, killed_here,
                           HarnessTraceTrack());
  }
  // Take the machine out of service by reserving all remaining capacity; the
  // sequence-number bump doubles as the state change other schedulers see.
  const Resources reservation =
      (cell_.Capacity(machine) - cell_.Allocated(machine)).ClampNonNegative();
  if (!reservation.IsZero()) {
    cell_.Allocate(machine, reservation);
  }
  // One report covers the kills and the reservation; neither wakes an
  // allocator (the kills' own callbacks do, for scheduler-started tasks).
  OnMachineChanged(machine, /*wake=*/false);
  downtime_reservation_[machine] = reservation;
  ++machine_failures_;
  ++machines_down_;
  sim_->ScheduleAt(sim_->Now() + options_.machine_repair_time, [this, machine] {
    if (!downtime_reservation_[machine].IsZero()) {
      cell_.Free(machine, downtime_reservation_[machine]);
      downtime_reservation_[machine] = Resources::Zero();
    }
    machine_down_[machine] = 0;
    --machines_down_;
    if (trace_ != nullptr) {
      trace_->MachineRepair(sim_->Now(), machine, HarnessTraceTrack());
    }
    OnMachineChanged(machine, /*wake=*/true);
  });
}

void ClusterSimulation::StartTasks(
    const Job& job, std::span<const TaskClaim> claims,
    std::function<void(const TaskClaim&)> on_task_end) {
  if (claims.empty()) {
    return;
  }
  const JobId job_id = job.id;
  const SimTime end = sim_->Now() + job.task_duration;
  const CohortStore::CohortId cohort =
      cohorts_.Create(job_id, std::move(on_task_end));
  Cohort& c = cohorts_.Get(cohort);
  c.member_claims.assign(claims.begin(), claims.end());
  if (track_running_tasks_) {
    c.member_tasks.reserve(claims.size());
  }
  for (const TaskClaim& claim : claims) {
    // Every task of a job has the job's task shape (§2.1); a claim that
    // deviates from it was not placed for this job.
    OMEGA_CHECK(claim.resources == job.task_resources)
        << "claim resources diverge from the job's task shape";
    if (trace_ != nullptr) {
      trace_->TaskStart(sim_->Now(), job_id, claim.machine,
                        HarnessTraceTrack());
    }
    if (track_running_tasks_) {
      c.member_tasks.push_back(registry_.Add(claim.machine, claim.resources,
                                             job.precedence, cohort));
    }
  }
  sim_->ScheduleAt(end, [this, cohort] { FinishCohort(cohort); });
}

void ClusterSimulation::FinishCohort(CohortStore::CohortId cohort_id) {
  // Take (move out + release) rather than reference: the member callbacks
  // below may start new cohorts, and slab growth would invalidate references.
  const Cohort c = cohorts_.Take(cohort_id);
  const SimTime now = sim_->Now();
  const size_t n = c.member_claims.size();
  for (size_t i = 0; i < n; ++i) {
    const TaskClaim& claim = c.member_claims[i];
    if (c.on_task_end != nullptr) {
      c.on_task_end(claim);
    }
    if (trace_ != nullptr) {
      trace_->TaskEnd(now, c.job, claim.machine, HarnessTraceTrack());
    }
    if (!c.member_tasks.empty()) {
      registry_.Remove(c.member_tasks[i]);
    }
  }
  for (const TaskClaim& claim : c.member_claims) {
    cell_.Free(claim.machine, claim.resources);
    OnMachineChanged(claim.machine, /*wake=*/true);
  }
}

void ClusterSimulation::KillTask(const RunningTask& task) {
  // The task's end event stays queued. A cohort member leaves its cohort, so
  // the shared end event no longer frees it; the cohort record lives until
  // that event, so the callback is still reachable here. An initial-fill
  // task has no callback, and its private end event finds it gone from the
  // registry.
  if (task.cohort != CohortStore::kNoCohort) {
    const Cohort& c = cohorts_.Get(task.cohort);
    if (c.on_task_end != nullptr) {
      c.on_task_end(TaskClaim{task.machine, task.resources, 0});
    }
    cohorts_.RemoveMember(task.cohort, task.task_id);
  }
  registry_.Remove(task.task_id);
  cell_.Free(task.machine, task.resources);
}

MachineId ClusterSimulation::PreemptAndPlace(const Job& job, Rng& rng,
                                             int* victims_evicted) {
  OMEGA_CHECK(track_running_tasks_)
      << "preemption needs the running-task registry";
  const uint32_t num_machines = cell_.NumMachines();
  auto try_machine = [&](MachineId m) -> bool {
    if (!job.constraints.empty() &&
        !MachineSatisfiesConstraints(cell_.Attributes(m), job)) {
      return false;
    }
    const Resources available =
        (cell_.UsableCapacity(m) - cell_.Allocated(m)).ClampNonNegative();
    const Resources shortfall =
        (job.task_resources - available).ClampNonNegative();
    if (shortfall.IsZero()) {
      // Fits without eviction (resources freed since the placement attempt).
      cell_.Allocate(m, job.task_resources);
      OnMachineChanged(m, /*wake=*/false);
      return true;
    }
    const std::vector<RunningTask> victims =
        registry_.SelectVictims(m, job.precedence, shortfall);
    if (victims.empty()) {
      return false;
    }
    for (const RunningTask& victim : victims) {
      KillTask(victim);
      ++tasks_preempted_;
      if (victims_evicted != nullptr) {
        ++*victims_evicted;
      }
      if (trace_ != nullptr) {
        trace_->Preemption(sim_->Now(), job.id, victim.machine,
                           victim.precedence, victim.task_id,
                           HarnessTraceTrack());
      }
    }
    cell_.Allocate(m, job.task_resources);
    OnMachineChanged(m, /*wake=*/false);
    return true;
  };
  // Random probes, then a linear scan so that a preemptable placement is
  // found whenever one exists.
  for (uint32_t probe = 0; probe < 32; ++probe) {
    const auto m = static_cast<MachineId>(rng.NextBounded(num_machines));
    if (try_machine(m)) {
      return m;
    }
  }
  const auto start = static_cast<MachineId>(rng.NextBounded(num_machines));
  for (uint32_t i = 0; i < num_machines; ++i) {
    const MachineId m = (start + i) % num_machines;
    if (try_machine(m)) {
      return m;
    }
  }
  return kInvalidMachineId;
}

}  // namespace omega
