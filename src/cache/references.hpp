// Line-reference extraction.
//
// The analyses and the FMM work at *line-reference* granularity: each basic
// block is abstracted into the ordered sequence of cache lines it accesses,
// with the number of accesses covered by each line (`fetches`). In a
// working (or RW/SRB-covered) set, the accesses after the first one in a
// line always hit — spatial locality. When a set is entirely faulty and
// unprotected, every one of the `fetches` accesses misses, which is the
// catastrophic case the paper's mechanisms eliminate.
#pragma once

#include <vector>

#include "cache/cache_config.hpp"
#include "cfg/cfg.hpp"

namespace pwcet {

/// One cache-line reference inside a basic block.
struct LineRef {
  LineAddress line = 0;
  SetIndex set = 0;
  std::uint32_t fetches = 0;  ///< accesses covered by this line
};

/// Per-block ordered line references, indexed by BlockId.
using ReferenceMap = std::vector<std::vector<LineRef>>;

/// Which of a block's accesses a reference stream covers: its instruction
/// fetches, its data loads, its stores, or any mix of them.
struct AccessStreams {
  bool fetches = false;
  bool loads = false;
  bool stores = false;
};

/// Extracts the line references of every basic block over the selected
/// access streams (the instruction fetches by default). Per block the
/// accesses enter in fetch, load, store order, and consecutive same-line
/// accesses merge into one reference with their counts summed.
ReferenceMap extract_references(const ControlFlowGraph& cfg,
                                const CacheConfig& config,
                                AccessStreams streams = {.fetches = true});

/// Total accesses recorded in the map for one block (== instruction_count
/// for the fetch stream).
std::uint64_t block_fetches(const ReferenceMap& refs, BlockId b);

}  // namespace pwcet
