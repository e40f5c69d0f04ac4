// Unified end-of-run reports (the second half of the observability subsystem).
//
// Each simulated architecture exposes its results through slightly different
// accessors (monolithic: one scheduler; Mesos: two frameworks; Omega/hifi: N
// batch schedulers plus a service scheduler). A RunReport flattens all of
// them into one architecture-agnostic document: per-scheduler metrics with
// preemption accounting kept separate from the optimistic-commit counters,
// the post-facto policy audit, the utilization series, failure-injection
// counters, and — when a TraceRecorder was attached — a summary of the event
// stream. ToJson renders the whole thing as a single JSON object so runs can
// be diffed, archived, and consumed by scripts without scraping stdout.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/mesos/offer.h"
#include "src/trace/trace_recorder.h"
#include "src/omega/audit.h"
#include "src/scheduler/cluster_simulation.h"
#include "src/scheduler/metrics.h"

namespace omega {

class MesosSimulation;
class MonolithicSimulation;
class OmegaSimulation;

// One scheduler's (or Mesos framework's) slice of the report.
struct SchedulerReport {
  std::string name;

  int64_t jobs_scheduled_batch = 0;
  int64_t jobs_scheduled_service = 0;
  int64_t jobs_abandoned = 0;

  double mean_wait_batch_secs = 0.0;
  double mean_wait_service_secs = 0.0;
  double p90_wait_batch_secs = 0.0;
  double p90_wait_service_secs = 0.0;

  double busyness_median = 0.0;
  double busyness_mad = 0.0;
  double conflict_fraction_mean = 0.0;
  int64_t busyness_clamp_events = 0;

  // Optimistic-commit counters...
  int64_t tasks_accepted = 0;
  int64_t tasks_conflicted = 0;
  // ...and eviction-won placements, reported separately (folding them into
  // tasks_accepted would skew the transaction-level conflict statistics).
  int64_t preemption_tasks_placed = 0;
  int64_t preemption_victims = 0;

  int64_t total_attempts = 0;
  double mean_attempts_per_job = 0.0;

  std::vector<std::string> audit_findings;
};

// Wrap-proof per-type event totals from an attached TraceRecorder.
struct TraceSummary {
  bool enabled = false;
  int64_t events_total = 0;
  int64_t events_dropped = 0;
  // (event type name, appended count), one entry per TraceEventType.
  std::vector<std::pair<std::string, int64_t>> counts;
};

// The Mesos allocator's work counters; filled only for Mesos runs.
struct OfferSummary {
  bool enabled = false;
  OfferCounters counters;
};

struct RunReport {
  std::string architecture;  // "monolithic", "mesos", "omega", "hifi", ...

  uint32_t num_machines = 0;
  double horizon_hours = 0.0;
  uint64_t seed = 0;

  int64_t jobs_submitted_batch = 0;
  int64_t jobs_submitted_service = 0;

  double final_cpu_utilization = 0.0;
  double final_mem_utilization = 0.0;
  std::vector<UtilizationSample> utilization_series;

  int64_t machine_failures = 0;
  int64_t tasks_killed_by_failures = 0;
  // Harness-level victim count (sum over all schedulers' preemptions).
  int64_t tasks_preempted = 0;

  bool audit_compliant = true;
  std::vector<SchedulerReport> schedulers;

  TraceSummary trace;
  OfferSummary offers;

  // Renders the report as one JSON object.
  void ToJson(std::ostream& os) const;
};

// Architecture-agnostic core: summarizes `sim` plus the named per-scheduler
// metrics. The convenience overloads below enumerate each architecture's
// schedulers for you.
RunReport BuildRunReport(
    const std::string& architecture, const ClusterSimulation& sim,
    const std::vector<std::pair<std::string, const SchedulerMetrics*>>& schedulers,
    const AuditPolicy& policy = {});

RunReport BuildRunReport(const std::string& architecture,
                         MonolithicSimulation& sim,
                         const AuditPolicy& policy = {});
RunReport BuildRunReport(const std::string& architecture, MesosSimulation& sim,
                         const AuditPolicy& policy = {});
// Covers the high-fidelity simulator too (it is an OmegaSimulation).
RunReport BuildRunReport(const std::string& architecture, OmegaSimulation& sim,
                         const AuditPolicy& policy = {});

}  // namespace omega

