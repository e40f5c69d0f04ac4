// Synthetic workload generation (lightweight simulator, §4 / Table 2).
//
// Jobs are synthesized from the per-cluster parameter distributions; the
// generator also produces the initial cell-state fill (~60% utilization) and,
// for the high-fidelity experiments, placement constraints and MapReduce
// specs.
#pragma once

#include <vector>

#include "src/common/distributions.h"
#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/workload/cluster_config.h"
#include "src/workload/job.h"

namespace omega {

// Options modulating generation for specific experiments.
struct GeneratorOptions {
  // Multiplies the batch / service job arrival rates (Figs. 8, 9 sweep the
  // relative batch arrival rate).
  double batch_rate_multiplier = 1.0;
  double service_rate_multiplier = 1.0;

  // Attach placement constraints to jobs (high-fidelity simulator only;
  // the lightweight simulator ignores constraints, Table 2).
  bool generate_constraints = false;
  // Number of distinct machine-attribute keys and values per key; must match
  // the attribute space assigned to machines (AssignMachineAttributes).
  int32_t num_attribute_keys = 8;
  int32_t num_attribute_values = 4;

  // Attach MapReduceSpec to ~mapreduce_fraction of batch jobs (§6).
  bool generate_mapreduce_specs = false;
};

class WorkloadGenerator {
 public:
  // Both job types' duration laws need a closed-form length-biased law
  // (Distribution::LengthBiased); others CHECK-fail here.
  WorkloadGenerator(const ClusterConfig& config, GeneratorOptions options,
                    uint64_t seed);

  // Generates the full arrival stream for `horizon` of simulated time,
  // in submission-time order. Job ids are dense and unique across both types.
  std::vector<Job> GenerateArrivals(Duration horizon);

  // Generates one job of `type` submitted at `submit`.
  Job GenerateJob(JobType type, SimTime submit);

  // One task of the population occupying the cell at simulation start.
  // `remaining` is the residual lifetime from time zero.
  struct InitialTask {
    Resources resources;
    Duration remaining;
    int32_t precedence = 0;
  };

  // Samples one standing-stock task. The mix is mostly service-like (service
  // jobs hold 55-80% of resources, Fig. 2). Durations are drawn exactly from
  // the length-biased law min(d, 30 days) dF(d) — the population present at
  // an instant is duration-weighted — and the residual lifetime is uniform
  // over the sampled duration (renewal theory), so the initial population
  // churns realistically without draining. Draw order: type, duration, cpus,
  // memory, residual.
  InitialTask SampleInitialTask();

  const ClusterConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

 private:
  void MaybeAttachConstraints(Job& job);
  void MaybeAttachMapReduceSpec(Job& job);

  ClusterConfig config_;
  GeneratorOptions options_;
  Rng rng_;
  JobId next_job_id_ = 1;
  // Each job type's standing-duration law, flattened once (SampleInitialTask).
  PiecewiseLaw standing_batch_;
  PiecewiseLaw standing_service_;
};

// Assigns attribute values and failure domains to machines, matching the
// attribute space the generator draws constraints from. Deterministic given
// `seed`.
struct MachineAttributeAssignment {
  int32_t num_attribute_keys = 8;
  int32_t num_attribute_values = 4;
  uint64_t seed = 42;
};

// Produces per-machine attribute vectors for `num_machines` machines.
std::vector<std::vector<int32_t>> GenerateMachineAttributes(
    uint32_t num_machines, const MachineAttributeAssignment& assignment);

}  // namespace omega

