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

// Audits one scheduling component's metrics at time `end` against the shared
// wait-time SLO and the conflict and abandonment limits (audit.cc), and
// returns the violations found, empty when it is compliant. Works for any
// component that keeps SchedulerMetrics: Omega/monolithic queue schedulers
// and Mesos frameworks alike. RunReport carries the findings per scheduler.
std::vector<std::string> AuditMetrics(const SchedulerMetrics& metrics,
                                      SimTime end);

}  // namespace omega
