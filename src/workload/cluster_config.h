// Per-cluster workload descriptors (clusters A, B, C, D of the paper).
//
// SUBSTITUTION NOTE (see DESIGN.md §2): the paper draws these parameters from
// proprietary Google production traces of May 2011. We encode synthetic
// descriptors calibrated against the published characterization: >80% of jobs
// are batch; service jobs hold 55-80% of resources, run far longer (20-40%
// beyond a month) and have fewer tasks; tasks-per-job is heavy-tailed up to
// thousands (Figures 2-4). Cluster A is a busy medium cluster, B one of the
// largest, C the publicly traced cluster, and D a small lightly loaded cluster
// about a quarter of C's size (§6.2).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/resources.h"
#include "src/common/distributions.h"
#include "src/common/sim_time.h"

namespace omega {

// Distribution bundle describing one workload type (batch or service).
struct WorkloadParams {
  // Mean job inter-arrival time in seconds (exponential arrivals).
  double interarrival_mean_secs = 1.0;
  std::shared_ptr<const Distribution> tasks_per_job;
  std::shared_ptr<const Distribution> task_duration_secs;
  std::shared_ptr<const Distribution> cpus_per_task;
  std::shared_ptr<const Distribution> mem_gb_per_task;
};

// One machine shape in a heterogeneous cell.
struct MachineClass {
  Resources capacity;
  double fraction = 0.0;  // of the cell's machines
};

struct ClusterConfig {
  std::string name;
  uint32_t num_machines = 0;
  Resources machine_capacity;
  // Optional heterogeneity (the high-fidelity simulator's cells mix machine
  // shapes): when non-empty, machines are assigned classes by interleaving
  // according to the fractions and `machine_capacity` is ignored.
  std::vector<MachineClass> machine_classes;
  uint32_t machines_per_failure_domain = 40;

  WorkloadParams batch;
  WorkloadParams service;

  // The lightweight simulator initializes cell state to about this utilization
  // (§4, "about 60% of cluster resources", comparable to [24]).
  double initial_utilization = 0.6;

  // Fraction of batch jobs that are MapReduce jobs (§6: about 20% of jobs at
  // Google are MapReduce).
  double mapreduce_fraction = 0.2;

  // Fraction of jobs carrying placement constraints in the high-fidelity
  // simulator (service jobs are pickier).
  double batch_constrained_fraction = 0.05;
  double service_constrained_fraction = 0.33;
};

// The four cluster descriptors used across the paper's experiments.
ClusterConfig ClusterA();
ClusterConfig ClusterB();
ClusterConfig ClusterC();
ClusterConfig ClusterD();

// The 100k-machine mega-cell (ROADMAP "mega-cell regime"): cluster C's
// per-machine load scaled to 8x the machines, for the fig_mega scale sweep
// over the SoA placement core. Not part of ClusterByName's A-D set.
ClusterConfig ClusterMega();

// Lookup by name ("A".."D"); CHECK-fails on unknown names.
ClusterConfig ClusterByName(const std::string& name);

// A deliberately tiny cluster for unit tests and the quickstart example.
ClusterConfig TestCluster(uint32_t num_machines = 32);

// Expands a cluster description into per-machine capacities: homogeneous
// (machine_capacity) unless machine_classes is set, in which case classes are
// deterministically interleaved according to their fractions.
std::vector<Resources> BuildMachineCapacities(const ClusterConfig& config);

}  // namespace omega

