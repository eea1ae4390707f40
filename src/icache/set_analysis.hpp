// Per-set cache analysis with parametric effective associativity.
//
// Runs the Must and May fixpoints for the references mapping to a single
// cache set, plus the scope-based persistence test, and combines them into
// CHMCs. The effective associativity parameter models disabled (faulty)
// blocks: a set with f faulty ways behaves as an LRU set of associativity
// W - f (paper §II-A); associativity 0 means the set caches nothing.
//
// Each reference's Must and May age before the access is recorded too. At
// full associativity W those ages answer every lower associativity by
// threshold (icache/age_profile.hpp), so the analysis itself runs once per
// set at W; constructing it below W is the tests' reference for that
// derivation.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/references.hpp"
#include "cfg/cfg.hpp"
#include "icache/chmc.hpp"

namespace pwcet {

/// Classification of every reference to `set` under the given effective
/// associativity. Entries of other sets are left value-initialized
/// (kNotClassified) and must not be consulted.
class SetAnalysis {
 public:
  SetAnalysis(const ControlFlowGraph& cfg, const ReferenceMap& refs,
              SetIndex set, std::uint32_t associativity);

  /// Classification for reference `ref_index` of block `b` (must map to
  /// this set).
  RefClass classification(BlockId b, std::size_t ref_index) const;

  /// Every reference's classification, parallel to the reference map;
  /// only this set's entries are meaningful.
  const ClassificationMap& classifications() const { return result_; }

  /// Maximum age reference `ref_index` of block `b` can have just before
  /// the access (Must analysis); the associativity when it may be absent
  /// or its block is unreachable.
  std::uint32_t must_age(BlockId b, std::size_t ref_index) const {
    return must_age_[size_t(b)][ref_index];
  }
  /// Minimum age it can have (May analysis); the associativity when it is
  /// definitely absent, 0 when its block is unreachable.
  std::uint32_t may_age(BlockId b, std::size_t ref_index) const {
    return may_age_[size_t(b)][ref_index];
  }

  /// Distinct lines of this set per scope: index 0 is the whole program,
  /// 1 + l is loop l.
  const std::vector<std::size_t>& scope_lines() const {
    return scope_distinct_lines_;
  }

 private:
  void run_fixpoints(const ControlFlowGraph& cfg, const ReferenceMap& refs);
  void run_persistence(const ControlFlowGraph& cfg, const ReferenceMap& refs);
  void classify(const ControlFlowGraph& cfg, const ReferenceMap& refs);

  SetIndex set_;
  std::uint32_t associativity_;
  // Per block/ref: Must and May age before the reference (see must_age and
  // may_age). The reference is a guaranteed hit iff its Must age is below
  // the associativity, and possibly present iff its May age is.
  std::vector<std::vector<std::uint32_t>> must_age_;
  std::vector<std::vector<std::uint32_t>> may_age_;
  // Per block/ref: outermost persistent scope, or sentinel "none".
  static constexpr LoopId kNoScope = -3;
  std::vector<std::vector<LoopId>> persistent_scope_;
  ClassificationMap result_;
  // Distinct line counts per scope: index 0 = whole program, 1 + loop id.
  std::vector<std::size_t> scope_distinct_lines_;
};

}  // namespace pwcet
