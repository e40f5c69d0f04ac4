#include "src/obs/run_report.h"

#include <ostream>

#include "src/common/json.h"
#include "src/mesos/mesos_simulation.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/monolithic.h"

namespace omega {
namespace {

SchedulerReport SummarizeScheduler(const std::string& name,
                                   const SchedulerMetrics& m, SimTime end,
                                   const AuditPolicy& policy) {
  SchedulerReport r;
  r.name = name;
  r.jobs_scheduled_batch = m.JobsScheduled(JobType::kBatch);
  r.jobs_scheduled_service = m.JobsScheduled(JobType::kService);
  r.jobs_abandoned = m.JobsAbandonedTotal();
  r.mean_wait_batch_secs = m.MeanWait(JobType::kBatch);
  r.mean_wait_service_secs = m.MeanWait(JobType::kService);
  r.p90_wait_batch_secs = m.WaitPercentile(JobType::kBatch, 0.9);
  r.p90_wait_service_secs = m.WaitPercentile(JobType::kService, 0.9);
  const DailySummary busyness = m.Busyness(end);
  r.busyness_median = busyness.median;
  r.busyness_mad = busyness.mad;
  r.conflict_fraction_mean = m.ConflictFraction(end).mean;
  r.busyness_clamp_events = m.BusynessClampEvents(end);
  r.tasks_accepted = m.TasksAccepted();
  r.tasks_conflicted = m.TasksConflicted();
  r.preemption_tasks_placed = m.TasksPlacedByPreemption();
  r.preemption_victims = m.PreemptionVictims();
  r.total_attempts = m.TotalAttempts();
  r.mean_attempts_per_job = m.MeanAttemptsPerJob();
  r.audit_findings = AuditMetrics(name, m, end, policy).findings;
  return r;
}

void AppendSchedulerJson(std::ostream& os, const SchedulerReport& r) {
  os << "{\"name\":";
  json::AppendString(os, r.name);
  os << ",\"jobs_scheduled_batch\":" << r.jobs_scheduled_batch
     << ",\"jobs_scheduled_service\":" << r.jobs_scheduled_service
     << ",\"jobs_abandoned\":" << r.jobs_abandoned;
  os << ",\"mean_wait_batch_secs\":";
  json::AppendNumber(os, r.mean_wait_batch_secs);
  os << ",\"mean_wait_service_secs\":";
  json::AppendNumber(os, r.mean_wait_service_secs);
  os << ",\"p90_wait_batch_secs\":";
  json::AppendNumber(os, r.p90_wait_batch_secs);
  os << ",\"p90_wait_service_secs\":";
  json::AppendNumber(os, r.p90_wait_service_secs);
  os << ",\"busyness_median\":";
  json::AppendNumber(os, r.busyness_median);
  os << ",\"busyness_mad\":";
  json::AppendNumber(os, r.busyness_mad);
  os << ",\"conflict_fraction_mean\":";
  json::AppendNumber(os, r.conflict_fraction_mean);
  os << ",\"busyness_clamp_events\":" << r.busyness_clamp_events
     << ",\"tasks_accepted\":" << r.tasks_accepted
     << ",\"tasks_conflicted\":" << r.tasks_conflicted
     << ",\"preemption_tasks_placed\":" << r.preemption_tasks_placed
     << ",\"preemption_victims\":" << r.preemption_victims
     << ",\"total_attempts\":" << r.total_attempts;
  os << ",\"mean_attempts_per_job\":";
  json::AppendNumber(os, r.mean_attempts_per_job);
  os << ",\"audit_findings\":[";
  for (size_t i = 0; i < r.audit_findings.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    json::AppendString(os, r.audit_findings[i]);
  }
  os << "]}";
}

}  // namespace

RunReport BuildRunReport(
    const std::string& architecture, const ClusterSimulation& sim,
    const std::vector<std::pair<std::string, const SchedulerMetrics*>>& schedulers,
    const AuditPolicy& policy) {
  RunReport report;
  report.architecture = architecture;
  report.num_machines = sim.cell().NumMachines();
  report.horizon_hours = sim.options().horizon.ToHours();
  report.seed = sim.options().seed;
  report.jobs_submitted_batch = sim.JobsSubmitted(JobType::kBatch);
  report.jobs_submitted_service = sim.JobsSubmitted(JobType::kService);
  report.final_cpu_utilization = sim.cell().CpuUtilization();
  report.final_mem_utilization = sim.cell().MemUtilization();
  report.utilization_series = sim.utilization_series();
  report.machine_failures = sim.MachineFailures();
  report.tasks_killed_by_failures = sim.TasksKilledByFailures();
  report.tasks_preempted = sim.TasksPreempted();

  const SimTime end = sim.EndTime();
  report.schedulers.reserve(schedulers.size());
  for (const auto& [name, metrics] : schedulers) {
    report.schedulers.push_back(SummarizeScheduler(name, *metrics, end, policy));
    if (!report.schedulers.back().audit_findings.empty()) {
      report.audit_compliant = false;
    }
  }

  if (const TraceRecorder* trace = sim.trace()) {
    report.trace.enabled = true;
    report.trace.events_total = trace->TotalRecorded();
    report.trace.events_dropped = trace->Dropped();
    for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
      const auto type = static_cast<TraceEventType>(i);
      report.trace.counts.emplace_back(TraceEventTypeName(type),
                                       trace->CountOf(type));
    }
  }
  return report;
}

RunReport BuildRunReport(const std::string& architecture,
                         MonolithicSimulation& sim, const AuditPolicy& policy) {
  return BuildRunReport(
      architecture, sim,
      {{sim.scheduler().name(), &sim.scheduler().metrics()}}, policy);
}

RunReport BuildRunReport(const std::string& architecture, MesosSimulation& sim,
                         const AuditPolicy& policy) {
  RunReport report = BuildRunReport(
      architecture, sim,
      {{sim.batch_framework().name(), &sim.batch_framework().metrics()},
       {sim.service_framework().name(), &sim.service_framework().metrics()}},
      policy);
  report.offers.enabled = true;
  report.offers.counters = sim.allocator().counters();
  return report;
}

RunReport BuildRunReport(const std::string& architecture, OmegaSimulation& sim,
                         const AuditPolicy& policy) {
  std::vector<std::pair<std::string, const SchedulerMetrics*>> schedulers;
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    schedulers.emplace_back(sim.batch_scheduler(i).name(),
                            &sim.batch_scheduler(i).metrics());
  }
  schedulers.emplace_back(sim.service_scheduler().name(),
                          &sim.service_scheduler().metrics());
  return BuildRunReport(architecture, sim, schedulers, policy);
}

void RunReport::ToJson(std::ostream& os) const {
  os << "{\"architecture\":";
  json::AppendString(os, architecture);
  os << ",\"cell\":{\"num_machines\":" << num_machines;
  os << ",\"horizon_hours\":";
  json::AppendNumber(os, horizon_hours);
  os << ",\"seed\":" << seed;
  os << ",\"final_cpu_utilization\":";
  json::AppendNumber(os, final_cpu_utilization);
  os << ",\"final_mem_utilization\":";
  json::AppendNumber(os, final_mem_utilization);
  os << "},\"workload\":{\"jobs_submitted_batch\":" << jobs_submitted_batch
     << ",\"jobs_submitted_service\":" << jobs_submitted_service << "}";
  os << ",\"failures\":{\"machine_failures\":" << machine_failures
     << ",\"tasks_killed\":" << tasks_killed_by_failures << "}";
  os << ",\"preemption\":{\"tasks_preempted_total\":" << tasks_preempted << "}";
  os << ",\"audit\":{\"compliant\":" << (audit_compliant ? "true" : "false")
     << "}";
  os << ",\"schedulers\":[";
  for (size_t i = 0; i < schedulers.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    AppendSchedulerJson(os, schedulers[i]);
  }
  os << "]";
  os << ",\"utilization_series\":[";
  for (size_t i = 0; i < utilization_series.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    const UtilizationSample& s = utilization_series[i];
    os << "{\"time_hours\":";
    json::AppendNumber(os, s.time_hours);
    os << ",\"cpu\":";
    json::AppendNumber(os, s.cpu);
    os << ",\"mem\":";
    json::AppendNumber(os, s.mem);
    os << "}";
  }
  os << "]";
  os << ",\"trace\":{\"enabled\":" << (trace.enabled ? "true" : "false");
  if (trace.enabled) {
    os << ",\"events_total\":" << trace.events_total
       << ",\"events_dropped\":" << trace.events_dropped << ",\"counts\":{";
    for (size_t i = 0; i < trace.counts.size(); ++i) {
      if (i > 0) {
        os << ",";
      }
      json::AppendString(os, trace.counts[i].first);
      os << ":" << trace.counts[i].second;
    }
    os << "}";
  }
  os << "}";
  if (offers.enabled) {
    const OfferCounters& c = offers.counters;
    os << ",\"mesos\":{\"rounds\":" << c.rounds
       << ",\"slices_offered\":" << c.slices_offered
       << ",\"slices_consumed\":" << c.slices_consumed
       << ",\"machines_examined\":" << c.machines_examined
       << ",\"holds_transferred\":" << c.holds_transferred << "}";
  }
  os << "}";
}

}  // namespace omega
