#include "src/scheduler/partitioned.h"

#include <algorithm>

#include "src/common/logging.h"

namespace omega {

PartitionedSimulation::PartitionedSimulation(const ClusterConfig& config,
                                             const SimOptions& options,
                                             const SchedulerConfig& batch_config,
                                             const SchedulerConfig& service_config,
                                             double batch_fraction)
    : ClusterSimulation(config, options) {
  OMEGA_CHECK(batch_fraction > 0.0 && batch_fraction < 1.0);
  // Each partition needs at least one machine: with one machine the clamp
  // bounds below cross, and an empty range would read as "whole cell".
  OMEGA_CHECK(config.num_machines >= 2)
      << "a partitioned cell needs at least 2 machines, got "
      << config.num_machines;
  const auto split = static_cast<MachineId>(std::clamp<double>(
      batch_fraction * config.num_machines, 1.0, config.num_machines - 1.0));
  batch_range_ = MachineRange{0, split};
  service_range_ = MachineRange{split, config.num_machines};
  batch_ = std::make_unique<MonolithicScheduler>(*this, batch_config,
                                                 rng().Fork(), batch_range_);
  service_ = std::make_unique<MonolithicScheduler>(*this, service_config,
                                                   rng().Fork(), service_range_);
}

void PartitionedSimulation::SubmitJob(const JobPtr& job) {
  if (job->type == JobType::kBatch) {
    batch_->Submit(job);
  } else {
    service_->Submit(job);
  }
}

double PartitionedSimulation::PartitionCpuUtilization(
    const MachineRange& range) const {
  Resources capacity;
  Resources allocated;
  for (MachineId m = range.begin; m < range.end; ++m) {
    capacity += cell().Capacity(m);
    allocated += cell().Allocated(m);
  }
  return capacity.cpus > 0.0 ? allocated.cpus / capacity.cpus : 0.0;
}

}  // namespace omega
