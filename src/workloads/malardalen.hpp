// Mälardalen WCET benchmark counterparts (paper §IV-A, [13]).
//
// The paper evaluates 25 benchmarks compiled for MIPS R2000/R3000 with
// gcc 4.1. Those binaries are not shipped here; instead each benchmark is
// re-expressed with the structured program builder, preserving what the
// instruction-cache analysis actually consumes: code sizes, loop nesting
// and bounds, call structure (callees share addresses across call sites),
// and branch shapes. Sizes are denominated in cache lines of the paper's
// configuration (16 B lines, 4-byte instructions => 4 instructions/line),
// mirroring the source complexity of the originals, so the ratio of loop
// working set to cache capacity — the property that drives the paper's
// four behaviour categories — is comparable.
#pragma once

#include <string>
#include <vector>

#include "cfg/program.hpp"

namespace pwcet::workloads {

/// All 25 benchmark names, in the display order used by the Fig. 4 bench.
std::vector<std::string> names();

/// Extension-kernel names (data-cache study, paper §VI future work): not
/// part of the 25-benchmark suite, but valid campaign tasks. Their blocks
/// record data load addresses for the combined I+D analyzer.
std::vector<std::string> extension_names();

/// names() + extension_names() — every name build() accepts (the set the
/// spec loader validates "tasks" against).
std::vector<std::string> all_names();

/// Builds one benchmark or extension kernel by name; aborts on unknown
/// names.
Program build(const std::string& name);

}  // namespace pwcet::workloads
