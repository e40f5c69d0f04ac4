#include "src/hifi/hifi_simulation.h"

namespace omega {

std::unique_ptr<OmegaSimulation> MakeHifiSimulation(
    const ClusterConfig& cluster, SimOptions options,
    const SchedulerConfig& batch_config, const SchedulerConfig& service_config,
    const HifiOptions& hifi) {
  options.fullness = FullnessPolicy::kHeadroom;
  options.headroom_fraction = hifi.headroom_fraction;

  GeneratorOptions gen;
  gen.generate_constraints = true;
  gen.num_attribute_keys = hifi.num_attribute_keys;
  gen.num_attribute_values = hifi.num_attribute_values;

  const ScoringPlacerOptions placer_options = hifi.placer;
  PlacerFactory factory = [placer_options] {
    return std::make_unique<ScoringPlacer>(placer_options);
  };
  auto sim = std::make_unique<OmegaSimulation>(cluster, options, batch_config,
                                               service_config,
                                               hifi.num_batch_schedulers, gen,
                                               std::move(factory));
  // The scoring placer runs global best-fit through the availability index.
  sim->cell().EnableAvailabilityIndex();
  return sim;
}

std::vector<Job> GenerateHifiTrace(const ClusterConfig& cluster,
                                   Duration horizon, uint64_t seed) {
  const HifiOptions hifi;
  GeneratorOptions gen;
  gen.generate_constraints = true;
  gen.generate_mapreduce_specs = true;
  gen.num_attribute_keys = hifi.num_attribute_keys;
  gen.num_attribute_values = hifi.num_attribute_values;
  WorkloadGenerator generator(cluster, gen, seed);
  return generator.GenerateArrivals(horizon);
}

}  // namespace omega
