// High-fidelity trace-driven simulation of the Omega architecture (§5).
//
// Differences from the lightweight simulator (Table 2):
//  - driven by a workload *trace* (a job list that GenerateHifiTrace
//    materializes up front and RunTrace replays) rather than by on-the-fly
//    synthesis;
//  - placement constraints are obeyed; machines carry attributes;
//  - the placement algorithm is the constraint-aware scoring placer;
//  - machine fullness uses the stricter headroom policy, producing more
//    conflicts under fine-grained detection.
// Preemption is supported but disabled by default, matching the paper ("we
// found that they make little difference to the results").
#pragma once

#include <memory>
#include <vector>

#include "src/hifi/scoring_placer.h"
#include "src/omega/omega_scheduler.h"

namespace omega {

struct HifiOptions {
  // Strict fullness: a machine is treated as full once this fraction of its
  // capacity must be held back (production headroom for system agents and
  // usage spikes).
  double headroom_fraction = 0.04;

  ScoringPlacerOptions placer;

  // Attribute space for constraints; must match the trace generator's.
  int32_t num_attribute_keys = 8;
  int32_t num_attribute_values = 4;

  uint32_t num_batch_schedulers = 1;
};

// Builds an OmegaSimulation configured as the high-fidelity simulator.
std::unique_ptr<OmegaSimulation> MakeHifiSimulation(
    const ClusterConfig& cluster, SimOptions options,
    const SchedulerConfig& batch_config, const SchedulerConfig& service_config,
    const HifiOptions& hifi = {});

// Materializes a synthetic trace for `cluster` over `horizon` (with placement
// constraints over the default HifiOptions attribute space and MapReduce
// specs attached) — the stand-in for a production workload trace.
// Deterministic given `seed`.
std::vector<Job> GenerateHifiTrace(const ClusterConfig& cluster,
                                   Duration horizon, uint64_t seed);

}  // namespace omega

