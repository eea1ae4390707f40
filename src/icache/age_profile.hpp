// Age profile of one reference stream: the per-set cache analysis at full
// associativity, kept in a form that classifies at any lower one.
//
// The Must and May analyses at associativity A equal those at W >= A with
// every age >= A dropped (icache/abstract_set.hpp; Ferdinand & Wilhelm,
// Real-Time Systems 1999), and the persistence test is a threshold on
// per-scope distinct-line counts. So one SetAnalysis per used set at W,
// recording each reference's Must and May age before the access, fixes the
// classification at every A in 0..W:
//   * always-hit iff the Must age is below A;
//   * else first-miss in the outermost scope with at most A distinct lines;
//   * else always-miss iff A == 0 or the May age is at least A;
//   * else not-classified.
// The fault-free classification (A = W), every FMM column (A = W - f) and
// the slack oracle's one-way cache (A = 1) all read one profile;
// tests/icache_test.cpp pins it to a SetAnalysis built at each A.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/references.hpp"
#include "cfg/cfg.hpp"
#include "icache/chmc.hpp"

namespace pwcet {

/// Immutable once built, so pool threads and pipelines may share it; it
/// holds no reference to the CFG or the reference map it was built from.
class AgeProfile {
 public:
  /// Analyzes every set `refs` uses at `config.ways`; sets without
  /// references run no fixpoint.
  AgeProfile(const ControlFlowGraph& cfg, const ReferenceMap& refs,
             const CacheConfig& config);

  /// The full associativity W the profile was analyzed at.
  std::uint32_t ways() const { return ways_; }

  /// Classification of reference `ref_index` of block `b` at
  /// `associativity` <= ways().
  RefClass classification(BlockId b, std::size_t ref_index,
                          std::uint32_t associativity) const;

  /// Every reference's classification at `associativity` <= ways(),
  /// parallel to the reference map.
  ClassificationMap classify(std::uint32_t associativity) const;

  /// Overwrites the entries of `set`'s references in `out` (shaped like the
  /// reference map) with their classification at `associativity`.
  void classify_set(SetIndex set, std::uint32_t associativity,
                    ClassificationMap& out) const;

  /// Bytes held by the profile's arrays (the memo's payload size).
  std::uint64_t payload_bytes() const;

 private:
  std::uint32_t ways_;
  /// Flat reference index of block b's first reference; one past the last
  /// block holds the total.
  std::vector<std::uint32_t> first_ref_;
  /// Per flat reference: its set, and its Must and May age at W (W stands
  /// for "absent"; see SetAnalysis::must_age and may_age).
  std::vector<SetIndex> set_;
  std::vector<std::uint32_t> must_age_;
  std::vector<std::uint32_t> may_age_;
  /// Per block, its enclosing loops from outermost to innermost:
  /// scope_chain_[chain_start_[b] .. chain_start_[b + 1]).
  std::vector<std::uint32_t> chain_start_;
  std::vector<LoopId> scope_chain_;
  /// Per set: distinct lines per scope (index 0 the whole program, 1 + l
  /// loop l); empty for sets without references.
  std::vector<std::vector<std::uint32_t>> scope_lines_;
};

}  // namespace pwcet
