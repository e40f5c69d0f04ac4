// Scheduler and simulation configuration.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/cluster/cell_state.h"
#include "src/common/sim_time.h"
#include "src/workload/job.h"

namespace omega {

// Linear decision-time model: t_decision = t_job + t_task * tasks (§4,
// "Parameters"). Defaults are the paper's conservative estimates from the
// production system: t_job = 0.1 s, t_task = 5 ms.
struct DecisionTimes {
  Duration t_job = Duration::FromSeconds(0.1);
  Duration t_task = Duration::FromMillis(5);

  Duration ForTasks(uint32_t tasks) const {
    return t_job + t_task * static_cast<double>(tasks);
  }
};

// Per-scheduler configuration.
struct SchedulerConfig {
  std::string name = "scheduler";

  // Decision-time model per job type (multi-path monolithic schedulers use a
  // fast path for batch; single-path uses identical values for both).
  DecisionTimes batch_times;
  DecisionTimes service_times;

  // Jobs are abandoned after this many scheduling attempts (§4: 1,000).
  uint32_t max_attempts = 1000;

  // After an attempt that made no progress for lack of fitting resources
  // (no conflict — the cell is simply full for this job), the job is requeued
  // at the back and, if the queue is otherwise empty, retried only after this
  // backoff. Conflicted attempts retry immediately, per §3.4.
  Duration no_progress_backoff = Duration::FromSeconds(5);

  // Omega transaction semantics (§3.4, §5.2).
  ConflictMode conflict_mode = ConflictMode::kFineGrained;
  CommitMode commit_mode = CommitMode::kIncremental;

  // Optional caps supporting cluster-wide policies as emergent behavior
  // (§3.4): a limit on the total resources this scheduler may hold, and on
  // the number of jobs it will admit to its queue.
  std::optional<Resources> resource_limit;
  std::optional<uint64_t> admission_limit;

  // If true, this scheduler may preempt running tasks of strictly lower
  // precedence when its jobs do not otherwise fit (§3.4). Requires
  // SimOptions::track_running_tasks. Off by default, like the paper's
  // high-fidelity simulator.
  bool enable_preemption = false;

  const DecisionTimes& TimesFor(JobType type) const {
    return type == JobType::kBatch ? batch_times : service_times;
  }
};

// Simulation-wide options.
struct SimOptions {
  Duration horizon = Duration::FromDays(7);
  uint64_t seed = 1;

  // If non-zero, the harness records (time, cpu_util, mem_util) samples at
  // this interval (Fig. 16).
  Duration utilization_sample_interval = Duration::Zero();

  // Workload scaling (Figs. 8, 9 vary the batch arrival rate).
  double batch_rate_multiplier = 1.0;
  double service_rate_multiplier = 1.0;

  // Cell-state fullness policy (the high-fidelity simulator uses a stricter
  // notion of machine fullness; see DESIGN.md).
  FullnessPolicy fullness = FullnessPolicy::kExact;
  double headroom_fraction = 0.0;

  // Maintain the running-task registry so schedulers with enable_preemption
  // can select victims. Costs memory and a little time; off by default.
  bool track_running_tasks = false;

  // Machine failure injection. The paper's simulators do not model machine
  // failures ("these only generate a small load on the scheduler"); this
  // lifts that simplification. Expected failures per machine per day; 0
  // disables. Requires track_running_tasks (failures kill the tasks on the
  // machine). Failed machines return empty after `machine_repair_time`.
  double machine_failure_rate_per_day = 0.0;
  Duration machine_repair_time = Duration::FromHours(1);
};

}  // namespace omega

