// Chip populations on the heavy structural path: the Monte-Carlo loop
// shared by the MBPTA protocol (mbpta/mbpta.hpp) and the campaign's
// fault-injection simulation jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_config.hpp"
#include "cfg/program.hpp"
#include "fault/fault_model.hpp"

namespace pwcet {

/// Simulated cycles of `chips` degraded chips, in sampling order. One
/// Rng(seed) stream draws every chip's fault map (FaultMap::sample at the
/// model's block failure probability); each chip then runs the program's
/// heavy-walk fetch trace (sim/path.hpp) cold through the cache simulator.
/// The input path is fixed: the population varies the faults only.
std::vector<double> simulate_chip_population(const Program& program,
                                             const CacheConfig& config,
                                             const FaultModel& faults,
                                             Mechanism mechanism,
                                             std::size_t chips,
                                             std::uint64_t seed);

}  // namespace pwcet
