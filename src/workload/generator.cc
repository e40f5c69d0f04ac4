#include "src/workload/generator.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace omega {
namespace {

// Frequently observed MapReduce worker counts at Google (§6): 5, 11, 200, 1000.
constexpr int32_t kCommonWorkerCounts[] = {5, 11, 200, 1000};
constexpr double kCommonWorkerWeights[] = {0.35, 0.30, 0.25, 0.10};

// A task is in the standing population with probability proportional to its
// duration, lifetimes beyond 30 days counting as 30 days (DESIGN.md §7,
// "Initial-fill sampler").
constexpr double kStandingCapSecs = 30.0 * 86400.0;

uint32_t SampleTaskCount(const Distribution& dist, Rng& rng) {
  const double raw = dist.Sample(rng);
  return static_cast<uint32_t>(std::max(1.0, std::round(raw)));
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(const ClusterConfig& config,
                                     GeneratorOptions options, uint64_t seed)
    : config_(config),
      options_(options),
      rng_(seed),
      standing_batch_(
          config_.batch.task_duration_secs->LengthBiased(kStandingCapSecs)),
      standing_service_(
          config_.service.task_duration_secs->LengthBiased(kStandingCapSecs)) {}

Job WorkloadGenerator::GenerateJob(JobType type, SimTime submit) {
  const WorkloadParams& params =
      type == JobType::kBatch ? config_.batch : config_.service;
  Job job;
  job.id = next_job_id_++;
  job.type = type;
  job.submit_time = submit;
  job.num_tasks = SampleTaskCount(*params.tasks_per_job, rng_);
  job.precedence = DefaultPrecedence(type);
  job.task_duration = Duration::FromSeconds(params.task_duration_secs->Sample(rng_));
  job.task_resources = Resources{params.cpus_per_task->Sample(rng_),
                                 params.mem_gb_per_task->Sample(rng_)};
  if (options_.generate_constraints) {
    MaybeAttachConstraints(job);
  }
  if (options_.generate_mapreduce_specs && type == JobType::kBatch) {
    MaybeAttachMapReduceSpec(job);
  }
  return job;
}

std::vector<Job> WorkloadGenerator::GenerateArrivals(Duration horizon) {
  std::vector<Job> jobs;
  for (JobType type : {JobType::kBatch, JobType::kService}) {
    const WorkloadParams& params =
        type == JobType::kBatch ? config_.batch : config_.service;
    const double multiplier = type == JobType::kBatch
                                  ? options_.batch_rate_multiplier
                                  : options_.service_rate_multiplier;
    if (multiplier <= 0.0) {
      continue;
    }
    ExponentialDist interarrival(params.interarrival_mean_secs / multiplier);
    SimTime t = SimTime::Zero();
    while (true) {
      t = t + Duration::FromSeconds(interarrival.Sample(rng_));
      if (t - SimTime::Zero() > horizon) {
        break;
      }
      jobs.push_back(GenerateJob(type, t));
    }
  }
  std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    if (a.submit_time != b.submit_time) {
      return a.submit_time < b.submit_time;
    }
    return a.id < b.id;
  });
  return jobs;
}

WorkloadGenerator::InitialTask WorkloadGenerator::SampleInitialTask() {
  // 85% of the standing resource mass is service-like: the long-lived service
  // population dominates the occupied cell, per the paper's characterization.
  const JobType type = rng_.NextBool(0.85) ? JobType::kService : JobType::kBatch;
  const WorkloadParams& params =
      type == JobType::kBatch ? config_.batch : config_.service;

  const double duration_secs =
      (type == JobType::kBatch ? standing_batch_ : standing_service_)
          .Sample(rng_);
  InitialTask task;
  task.resources = Resources{params.cpus_per_task->Sample(rng_),
                             params.mem_gb_per_task->Sample(rng_)};
  task.precedence = DefaultPrecedence(type);
  // Residual lifetime from time zero is uniform over the task's duration.
  task.remaining = Duration::FromSeconds(duration_secs * rng_.NextDouble());
  return task;
}

void WorkloadGenerator::MaybeAttachConstraints(Job& job) {
  const double constrained_fraction = job.type == JobType::kBatch
                                          ? config_.batch_constrained_fraction
                                          : config_.service_constrained_fraction;
  if (!rng_.NextBool(constrained_fraction)) {
    return;
  }
  // One or two constraints; two-constraint ("picky") jobs are rarer. Keys are
  // distinct so a job never carries contradictory predicates.
  const int num_constraints = rng_.NextBool(0.3) ? 2 : 1;
  const auto first_key =
      static_cast<int32_t>(rng_.NextBounded(options_.num_attribute_keys));
  for (int i = 0; i < num_constraints; ++i) {
    PlacementConstraint c;
    c.attribute_key = first_key;
    if (i > 0) {
      c.attribute_key = static_cast<int32_t>(
          (first_key + 1 + rng_.NextBounded(options_.num_attribute_keys - 1)) %
          options_.num_attribute_keys);
    }
    c.attribute_value =
        static_cast<int32_t>(rng_.NextBounded(options_.num_attribute_values));
    // Equality constraints restrict to ~1/num_values of machines (picky);
    // inequality constraints are mild.
    c.must_equal = rng_.NextBool(0.5);
    job.constraints.push_back(c);
  }
}

void WorkloadGenerator::MaybeAttachMapReduceSpec(Job& job) {
  if (!rng_.NextBool(config_.mapreduce_fraction)) {
    return;
  }
  MapReduceSpec spec;
  const double u = rng_.NextDouble();
  double cumulative = 0.0;
  spec.requested_workers = kCommonWorkerCounts[3];
  for (size_t i = 0; i < std::size(kCommonWorkerCounts); ++i) {
    cumulative += kCommonWorkerWeights[i];
    if (u <= cumulative) {
      spec.requested_workers = kCommonWorkerCounts[i];
      break;
    }
  }
  // Large MapReduce jobs typically have many more activities than workers
  // (§6.1), so speedup headroom exists before activities run fully parallel —
  // but not all jobs have it: a sizable minority already run close to fully
  // parallel (which is why only 50-70% of jobs can benefit, Fig. 15).
  const double activities_per_worker =
      std::max(0.3, std::min(30.0, LogNormalDist(3.5, 1.2).Sample(rng_)));
  spec.num_map_activities = static_cast<int64_t>(
      std::max(1.0, spec.requested_workers * activities_per_worker));
  spec.num_reduce_activities =
      static_cast<int64_t>(std::max(1.0, spec.num_map_activities * 0.3));
  spec.map_activity_duration =
      Duration::FromSeconds(std::max(1.0, LogNormalDist(45.0, 1.0).Sample(rng_)));
  spec.reduce_activity_duration =
      Duration::FromSeconds(std::max(1.0, LogNormalDist(90.0, 1.0).Sample(rng_)));
  job.mapreduce = spec;
}

std::vector<std::vector<int32_t>> GenerateMachineAttributes(
    uint32_t num_machines, const MachineAttributeAssignment& assignment) {
  Rng rng(assignment.seed);
  std::vector<std::vector<int32_t>> attributes(num_machines);
  for (uint32_t m = 0; m < num_machines; ++m) {
    attributes[m].resize(assignment.num_attribute_keys);
    for (int32_t k = 0; k < assignment.num_attribute_keys; ++k) {
      attributes[m][k] =
          static_cast<int32_t>(rng.NextBounded(assignment.num_attribute_values));
    }
  }
  return attributes;
}

}  // namespace omega
