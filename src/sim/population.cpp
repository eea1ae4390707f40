#include "sim/population.hpp"

#include "fault/fault_map.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "support/rng.hpp"

namespace pwcet {

std::vector<double> simulate_chip_population(const Program& program,
                                             const CacheConfig& config,
                                             const FaultModel& faults,
                                             Mechanism mechanism,
                                             std::size_t chips,
                                             std::uint64_t seed) {
  const Probability pbf = faults.block_failure_probability(config);
  const std::vector<Address> trace =
      fetch_trace(program.cfg(), heavy_walk(program));

  Rng rng(seed);
  std::vector<double> times;
  times.reserve(chips);
  for (std::size_t chip = 0; chip < chips; ++chip) {
    const FaultMap map = FaultMap::sample(config, pbf, rng);
    times.push_back(static_cast<double>(
        simulate_trace(config, map, mechanism, trace).cycles));
  }
  return times;
}

}  // namespace pwcet
