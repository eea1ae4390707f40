#include "mbpta/mbpta.hpp"

#include <algorithm>

#include "sim/population.hpp"
#include "support/contracts.hpp"

namespace pwcet {

MbptaResult run_mbpta(const Program& program, const CacheConfig& config,
                      const FaultModel& faults, Mechanism mechanism,
                      const MbptaOptions& options, std::uint64_t seed) {
  // Division form: 2 * block_size would wrap for huge block sizes.
  PWCET_EXPECTS(options.block_size <= options.chips / 2);

  // One fixed input path (the heavy structural path): MBPTA observes timing
  // variation across the chip population, not across inputs.
  MbptaResult result;
  result.times = simulate_chip_population(program, config, faults, mechanism,
                                          options.chips, seed);
  result.observed_max =
      *std::max_element(result.times.begin(), result.times.end());

  const std::vector<double> maxima =
      block_maxima(result.times, options.block_size);
  result.gumbel = fit_gumbel_mle(maxima);
  return result;
}

}  // namespace pwcet
