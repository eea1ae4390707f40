/// \file
/// Single source of truth for campaign axis-value names.
///
/// Every enum that appears in a spec file, a report column or the CLI
/// (`Mechanism`, `WcetEngine`, `AnalysisKind`, `DcacheMechanism`) has
/// exactly one table here pairing each enumerator with its canonical
/// spelling and the one-line description `pwcet list` prints. The
/// `*_name()` helpers (declared next to their enums), the spec loader's
/// enum parsing and the CLI listing all read these tables, so a new axis
/// value added here is automatically parseable, printable and listed —
/// and cannot be added inconsistently across those three surfaces.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "engine/campaign.hpp"

namespace pwcet {

/// One row of an axis-value table.
template <typename Enum>
struct AxisName {
  Enum value;
  const char* name;         ///< canonical spelling (specs, reports, CLI)
  const char* description;  ///< one-liner for `pwcet list`
};

/// The registry rows, in canonical listing order.
const std::vector<AxisName<Mechanism>>& mechanism_names();
const std::vector<AxisName<WcetEngine>>& engine_names();
const std::vector<AxisName<AnalysisKind>>& analysis_kind_names();
const std::vector<AxisName<DcacheMechanism>>& dcache_mechanism_names();
const std::vector<AxisName<WritePolicy>>& write_policy_names();

/// The candidate closest to `word` by edit distance, for a "did you mean"
/// hint on a misspelt key or name; "" when none is close enough.
std::string closest_match(const std::string& word,
                          const std::vector<std::string>& candidates);

/// (name, value) pairs in registry order — the shape the spec loader's
/// enum parser consumes.
template <typename Enum>
std::vector<std::pair<std::string, Enum>> axis_name_table(
    const std::vector<AxisName<Enum>>& names) {
  std::vector<std::pair<std::string, Enum>> out;
  out.reserve(names.size());
  for (const AxisName<Enum>& entry : names)
    out.emplace_back(entry.name, entry.value);
  return out;
}

}  // namespace pwcet
