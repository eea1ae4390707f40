// Random structured-program generation.
//
// Produces arbitrary (but always well-formed) tasks for property-based
// testing and robustness studies: every generated program has bounded
// loops, single-entry/single-exit structure, and a code layout like the
// hand-written workloads. The same generator doubles as a stress tool for
// users evaluating the analyzer on program shapes beyond the Mälardalen
// suite.
#pragma once

#include <cstdint>

#include "cfg/program.hpp"
#include "support/rng.hpp"

namespace pwcet::workloads {

struct RandomProgramParams {
  std::uint32_t max_depth = 4;        ///< nesting depth of seq/if/loop
  std::uint32_t max_children = 4;     ///< fan-out of sequences
  std::uint32_t max_code_lines = 12;  ///< straight-line chunk size (lines)
  std::int64_t max_loop_bound = 12;
  std::uint32_t max_functions = 3;    ///< callees generated before main
  /// Hard cap on the worst-case fetch count; generation retries until the
  /// program fits (keeps simulation-based property tests fast).
  std::uint64_t max_heavy_fetches = 300000;
  /// Data loads per straight-line chunk (0 = none, the default — programs
  /// and RNG streams are then identical to earlier releases). Non-zero
  /// makes every chunk draw up to this many loads from a small address
  /// pool, exercising the data-cache analysis path
  /// (analysis/dcache_domain.hpp) in property tests.
  std::uint32_t max_data_loads = 0;
  /// Size of the data address pool, in 4-byte words; small pools force
  /// line sharing and set conflicts in tiny data caches.
  std::uint32_t data_pool_words = 64;
  /// Data stores per straight-line chunk (0 = none, the default — RNG
  /// streams are then identical to load-only generation). Stores draw from
  /// the same pool as loads so load/store pairs share lines, exercising
  /// the write-back domain's dirty-eviction accounting.
  std::uint32_t max_data_stores = 0;
};

/// Generates a random task. Deterministic in (rng state, params).
Program random_program(Rng& rng, const RandomProgramParams& params = {});

}  // namespace pwcet::workloads
