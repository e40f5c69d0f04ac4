// Post-facto policy auditing (§3.4).
//
// Omega has no central policy-enforcement engine; cluster-wide goals are
// emergent, supported by per-scheduler configuration limits and by monitoring:
// "compliance to cluster-wide policies can be audited post facto to eliminate
// the need for checks in a scheduler's critical code path". This module is
// that audit: after (or during) a run it flags each scheduler's violations of
// the configured limits and of the shared SLO.
#pragma once

#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/scheduler/metrics.h"

namespace omega {

struct AuditPolicy {
  // The shared wait-time SLO (30 s in the paper's evaluation).
  double wait_slo_secs = 30.0;
  // Flag schedulers whose conflict fraction exceeds this (misbehaving or
  // misconfigured schedulers redo too much work).
  double max_conflict_fraction = 2.0;
  // Flag schedulers that abandoned more than this fraction of their jobs.
  double max_abandoned_fraction = 0.01;
};

// Audits one scheduling component's metrics against the policy at time `end`
// and returns the violations found, empty when it is compliant. Works for any
// component that keeps SchedulerMetrics: Omega/monolithic queue schedulers
// and Mesos frameworks alike. RunReport carries the findings per scheduler.
std::vector<std::string> AuditMetrics(const SchedulerMetrics& metrics,
                                      SimTime end,
                                      const AuditPolicy& policy = {});

}  // namespace omega
