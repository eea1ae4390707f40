// Abstract cache-set states for the Must and May analyses (paper §II-B.1,
// Ferdinand-style abstract interpretation restricted to one cache set —
// LRU sets age independently, so the whole-cache analysis decomposes into
// per-set analyses with a per-set effective associativity). Both updates
// and both joins commute with dropping every age >= A, so the states at
// associativity A are those at W >= A truncated: one analysis at W
// answers every degraded set (icache/age_profile.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace pwcet {

/// Age bound of one line in an abstract set state. Ages range over
/// [0, associativity); a line absent from the state is unbounded (Must) or
/// definitely absent (May).
struct AgedLine {
  LineAddress line = 0;
  std::uint32_t age = 0;

  friend bool operator==(const AgedLine&, const AgedLine&) = default;
};

/// Must abstract state: lines *guaranteed* resident, with the maximum age
/// they can have. A referenced line present here is always-hit.
class MustState {
 public:
  /// Empty cache (task cold start — sound also for unknown initial content,
  /// since never-referenced lines can only age tracked lines as counted).
  MustState() = default;

  /// LRU update for an access to `line` with the given associativity.
  void access(LineAddress line, std::uint32_t associativity);

  /// True if the line is guaranteed resident.
  bool contains(LineAddress line) const;

  /// The line's maximum age, or `absent` if it is not guaranteed resident.
  std::uint32_t age_of(LineAddress line, std::uint32_t absent) const;

  /// Greatest lower bound: lines present in both, with the max age.
  static MustState join(const MustState& a, const MustState& b);

  const std::vector<AgedLine>& lines() const { return lines_; }
  friend bool operator==(const MustState&, const MustState&) = default;

 private:
  std::vector<AgedLine> lines_;  // sorted by line address
};

/// May abstract state: lines that *may* be resident, with the minimum age
/// they can have. A referenced line absent here is always-miss.
class MayState {
 public:
  MayState() = default;

  void access(LineAddress line, std::uint32_t associativity);
  bool contains(LineAddress line) const;

  /// The line's minimum age, or `absent` if it is definitely not resident.
  std::uint32_t age_of(LineAddress line, std::uint32_t absent) const;

  /// Least upper bound: union of lines, with the min age.
  static MayState join(const MayState& a, const MayState& b);

  const std::vector<AgedLine>& lines() const { return lines_; }
  friend bool operator==(const MayState&, const MayState&) = default;

 private:
  std::vector<AgedLine> lines_;  // sorted by line address
};

}  // namespace pwcet
