// Base harness for a simulated cluster: cell state, workload arrival streams,
// initial fill, task lifecycle, and utilization sampling.
//
// Architecture-specific simulations (monolithic, two-level/Mesos, shared-
// state/Omega) subclass this and route submitted jobs to their schedulers.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/cluster/task_registry.h"
#include "src/common/random.h"
#include "src/trace/trace_recorder.h"
#include "src/scheduler/cohort_store.h"
#include "src/scheduler/config.h"
#include "src/sim/simulator.h"
#include "src/workload/generator.h"
#include "src/workload/job.h"

namespace omega {

using JobPtr = std::shared_ptr<Job>;

class QueueScheduler;

// A point of the cluster-utilization time series (Fig. 16).
struct UtilizationSample {
  double time_hours = 0.0;
  double cpu = 0.0;
  double mem = 0.0;
};

class ClusterSimulation {
 public:
  ClusterSimulation(const ClusterConfig& config, const SimOptions& options,
                    GeneratorOptions generator_options = {});
  virtual ~ClusterSimulation() = default;
  ClusterSimulation(const ClusterSimulation&) = delete;
  ClusterSimulation& operator=(const ClusterSimulation&) = delete;

  // Fills the cell to the configured initial utilization, starts the batch and
  // service arrival streams, and runs the simulation to the horizon.
  void Run();

  // The setup half of Run(): initial fill plus arrival/sampling/failure
  // streams, without entering the event loop. A multi-cell driver (the
  // federation layer) prepares each cell in cell-index order and then runs
  // the shared event queue itself.
  void PrepareRun();

  // Replay mode: instead of synthesizing arrivals, submit exactly these jobs
  // at their recorded submission times (high-fidelity trace replay, §5).
  // Everything else, failure injection included, is set up as in Run().
  void RunTrace(std::vector<Job> trace);

  // Routes a newly submitted job to the appropriate scheduler.
  virtual void SubmitJob(const JobPtr& job) = 0;

  // Front-door entry for an externally generated job: counts the submission,
  // traces it, and routes it via SubmitJob. Used by trace replay and by the
  // federation submitter layer.
  void InjectJob(const JobPtr& job);

  // Redirects all event scheduling onto an external simulator (the federation
  // layer's shared-queue mode runs N cells on one master event queue so
  // gossip, transfers, and cell events interleave deterministically). Must
  // be called before any event is scheduled, i.e. before
  // Run()/PrepareRun()/RunTrace(). `sim` must be non-null, and its horizon
  // must be EndTime(); it is borrowed, not owned, and must outlive this
  // simulation.
  void UseSharedSimulator(Simulator* sim);

  // --- per-job lifecycle hooks (called by the schedulers) ---

  // Invoked when a job reaches FullyScheduled() / is abandoned. Default
  // no-ops; the federation layer overrides them to drive cross-cell
  // spillover. Public because the schedulers (QueueScheduler, Mesos
  // frameworks) invoke them on their harness.
  virtual void OnJobFullyScheduled(const JobPtr& /*job*/) {}
  virtual void OnJobAbandoned(const JobPtr& /*job*/) {}

  Simulator& sim() { return *sim_; }
  CellState& cell() { return cell_; }
  const CellState& cell() const { return cell_; }
  const ClusterConfig& config() const { return config_; }
  const SimOptions& options() const { return options_; }
  SimTime EndTime() const { return SimTime::Zero() + options_.horizon; }

  // Allocations already committed: starts the end timers that free resources
  // when tasks finish. `on_task_end` (optional) runs per task before its
  // resources are freed (Mesos uses it to update allocator bookkeeping,
  // QueueScheduler to release its resource_limit account). The whole batch
  // is one cohort sharing one end event — all claims come from one commit of
  // one job, so they share a start time and duration — whose firing frees
  // the members one by one in claim order; results are bit-identical to
  // giving every task its own end event (DESIGN.md §10).
  void StartTasks(const Job& job, std::span<const TaskClaim> claims,
                  std::function<void(const TaskClaim&)> on_task_end = nullptr);

  // Every scheduler of this simulation, in construction order. Each
  // QueueScheduler adds itself on construction, so reports and aggregates
  // enumerate the schedulers here instead of per architecture.
  const std::vector<QueueScheduler*>& schedulers() const { return schedulers_; }

  // Job accounting.
  int64_t TotalJobsAbandoned() const;  // summed over schedulers()
  int64_t JobsSubmitted(JobType type) const {
    return type == JobType::kBatch ? batch_submitted_ : service_submitted_;
  }
  int64_t JobsSubmittedTotal() const {
    return batch_submitted_ + service_submitted_;
  }

  const std::vector<UtilizationSample>& utilization_series() const {
    return utilization_series_;
  }

  WorkloadGenerator& generator() { return generator_; }
  Rng& rng() { return rng_; }

  // --- lifecycle tracing (off by default) ---

  // Attaches a TraceRecorder; call before Run()/RunTrace(). The recorder is
  // borrowed, not owned, and must outlive the simulation. Attaching installs
  // the CellState commit observer; every instrumentation hook is a null check
  // when no recorder is attached, and recording never schedules events or
  // samples RNGs, so results are bit-identical with tracing on or off.
  void SetTraceRecorder(TraceRecorder* recorder);
  TraceRecorder* trace() const { return trace_; }

  // Namespace prefix for this simulation's trace tracks (e.g. "cell3/").
  // When several cells share one TraceRecorder, the prefix keeps their
  // scheduler tracks (and the per-cell harness track) from colliding on the
  // same Perfetto thread id. Empty (the default) preserves the single-cell
  // track names byte-for-byte. Set before Run()/RunTrace().
  void SetTraceScope(std::string scope) { trace_scope_ = std::move(scope); }
  const std::string& trace_scope() const { return trace_scope_; }

  // --- preemption support (needs the running-task registry) ---

  // Attempts to place one task of `job` by evicting running tasks of strictly
  // lower precedence. On success the victims are killed (their end events
  // become no-ops) and the task's resources allocated; returns the machine
  // used, or kInvalidMachineId if no machine can supply the resources even
  // with preemption. The caller starts the new task via StartTasks.
  // `victims_evicted`, if non-null, is incremented by the number of tasks
  // evicted for this placement (zero when the task fit without eviction).
  MachineId PreemptAndPlace(const Job& job, Rng& rng,
                            int* victims_evicted = nullptr);

  int64_t TasksPreempted() const { return tasks_preempted_; }
  const TaskRegistry& task_registry() const { return registry_; }

  // --- failure injection (SimOptions::machine_failure_rate_per_day) ---

  int64_t MachineFailures() const { return machine_failures_; }
  int64_t TasksKilledByFailures() const { return tasks_killed_by_failures_; }
  int64_t MachinesDown() const { return machines_down_; }
  bool MachineIsDown(MachineId machine) const {
    return machine < machine_down_.size() && machine_down_[machine] != 0;
  }

 protected:
  // Hook invoked after the initial fill and before arrivals start; subclasses
  // may inspect the initial cell state.
  virtual void OnSimulationStart() {}

  // Hook invoked after the harness changes `machine`'s allocation: task-end
  // frees (including initial-fill tasks), failure kills and downtime
  // reservations, repairs, and preemption. `wake` is set where resources
  // come back for good (task ends, repairs). The Mesos allocator uses the
  // machine to invalidate its cached offer state and `wake` to re-offer.
  virtual void OnMachineChanged(MachineId /*machine*/, bool /*wake*/) {}

  // Kills every running task on `machine` and reserves its capacity until
  // repair. Needs the running-task registry. Protected so test harnesses can
  // inject deterministic failures.
  void FailMachine(MachineId machine);

  // Keeps the running-task registry that FailMachine and PreemptAndPlace
  // read. It is on from construction when the options inject machine
  // failures; OmegaSimulation turns it on for a preempting scheduler, and a
  // test harness that kills tasks by hand calls this itself. Call before
  // anything is scheduled.
  void TrackRunningTasks();

 private:
  friend class QueueScheduler;  // adds and removes itself in schedulers_

  // The one setup sequence of Run() and RunTrace(): initial fill,
  // OnSimulationStart, arrivals (the generated streams, or `trace`'s jobs
  // when it is non-null), utilization sampling, failure stream.
  void Prepare(std::vector<Job>* trace);
  void PlaceInitialFill();
  void ScheduleNextArrival(JobType type);
  void ScheduleUtilizationSample();
  void CountSubmission(JobType type);
  void ScheduleNextMachineFailure();

  // Trace track for harness-level events (job submits, task starts/ends,
  // commits, failures). Track 0 ("cluster") unless a trace scope is set, in
  // which case a per-cell "<scope>cluster" track is registered lazily.
  uint16_t HarnessTraceTrack();

  // Fires a cohort's shared end event: per-member callback/trace/registry
  // work in claim order, then one Free per member in claim order.
  void FinishCohort(CohortStore::CohortId cohort_id);
  // Kills a running task (machine failure or preemption): runs its pending
  // end-of-life callback (Mesos allocator bookkeeping, QueueScheduler's
  // resource_limit account), which its end event will no longer run, drops
  // it from its cohort and the registry, and frees its resources.
  void KillTask(const RunningTask& task);

  ClusterConfig config_;
  SimOptions options_;
  // Owned by default; UseSharedSimulator() repoints sim_ at an external
  // master queue (federation) and drops the owned instance.
  std::unique_ptr<Simulator> owned_sim_;
  Simulator* sim_;
  CellState cell_;
  WorkloadGenerator generator_;
  Rng rng_;

  std::vector<QueueScheduler*> schedulers_;
  int64_t batch_submitted_ = 0;
  int64_t service_submitted_ = 0;
  std::vector<UtilizationSample> utilization_series_;
  // Resources of the untracked initial-fill tasks, indexed by their end
  // events.
  std::vector<Resources> fill_resources_;

  // Whether registry_ records running tasks. Only a run that can kill a
  // task needs it; the initial fill of a 100,000-machine cell cannot afford
  // an entry per task otherwise.
  bool track_running_tasks_;
  TaskRegistry registry_;
  CohortStore cohorts_;
  int64_t tasks_preempted_ = 0;
  TraceRecorder* trace_ = nullptr;
  std::string trace_scope_;
  int32_t harness_track_ = -1;  // lazily registered; -1 = not yet

  // Failure injection state: capacity reserved on down machines, pending
  // repair.
  std::vector<Resources> downtime_reservation_;
  std::vector<char> machine_down_;
  int64_t machine_failures_ = 0;
  int64_t tasks_killed_by_failures_ = 0;
  int64_t machines_down_ = 0;
};

}  // namespace omega

