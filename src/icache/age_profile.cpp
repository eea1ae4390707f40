#include "icache/age_profile.hpp"

#include <algorithm>

#include "icache/set_analysis.hpp"
#include "support/contracts.hpp"

namespace pwcet {

AgeProfile::AgeProfile(const ControlFlowGraph& cfg, const ReferenceMap& refs,
                       const CacheConfig& config)
    : ways_(config.ways) {
  const std::size_t n = cfg.block_count();
  PWCET_EXPECTS(refs.size() == n);
  std::vector<std::uint8_t> used(config.sets, 0);
  first_ref_.reserve(n + 1);
  for (std::size_t b = 0; b < n; ++b) {
    first_ref_.push_back(static_cast<std::uint32_t>(set_.size()));
    for (const LineRef& r : refs[b]) {
      PWCET_EXPECTS(r.set < config.sets);
      set_.push_back(r.set);
      used[r.set] = 1;
    }
  }
  first_ref_.push_back(static_cast<std::uint32_t>(set_.size()));
  must_age_.assign(set_.size(), ways_);
  may_age_.assign(set_.size(), 0);

  const auto& loops = cfg.loops();
  chain_start_.reserve(n + 1);
  for (std::size_t b = 0; b < n; ++b) {
    chain_start_.push_back(static_cast<std::uint32_t>(scope_chain_.size()));
    for (LoopId l = cfg.innermost_loop(static_cast<BlockId>(b)); l != kNoLoop;
         l = loops[size_t(l)].parent)
      scope_chain_.push_back(l);
    std::reverse(scope_chain_.begin() + chain_start_.back(),
                 scope_chain_.end());
  }
  chain_start_.push_back(static_cast<std::uint32_t>(scope_chain_.size()));

  // One fixpoint per used set, each discarded once its ages are copied:
  // the profile never holds a program-sized analysis per set.
  scope_lines_.resize(config.sets);
  for (SetIndex s = 0; s < config.sets; ++s) {
    if (!used[s]) continue;
    const SetAnalysis analysis(cfg, refs, s, ways_);
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t i = 0; i < refs[b].size(); ++i) {
        if (refs[b][i].set != s) continue;
        const std::size_t k = first_ref_[b] + i;
        must_age_[k] = analysis.must_age(static_cast<BlockId>(b), i);
        may_age_[k] = analysis.may_age(static_cast<BlockId>(b), i);
      }
    }
    scope_lines_[s].assign(analysis.scope_lines().begin(),
                           analysis.scope_lines().end());
  }
}

RefClass AgeProfile::classification(BlockId b, std::size_t ref_index,
                                    std::uint32_t associativity) const {
  PWCET_EXPECTS(associativity <= ways_);
  const std::size_t k = first_ref_[size_t(b)] + ref_index;
  if (must_age_[k] < associativity) return {Chmc::kAlwaysHit, kNoLoop};
  if (associativity > 0) {
    // Outermost scope first: the whole program, then the enclosing loops.
    const std::vector<std::uint32_t>& lines = scope_lines_[set_[k]];
    if (lines[0] <= associativity) return {Chmc::kFirstMiss, kNoLoop};
    for (std::uint32_t c = chain_start_[size_t(b)];
         c < chain_start_[size_t(b) + 1]; ++c) {
      const LoopId loop = scope_chain_[c];
      if (lines[1 + size_t(loop)] <= associativity)
        return {Chmc::kFirstMiss, loop};
    }
  }
  if (may_age_[k] >= associativity) return {Chmc::kAlwaysMiss, kNoLoop};
  return {Chmc::kNotClassified, kNoLoop};
}

ClassificationMap AgeProfile::classify(std::uint32_t associativity) const {
  ClassificationMap out(first_ref_.size() - 1);
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b].resize(first_ref_[b + 1] - first_ref_[b]);
    for (std::size_t i = 0; i < out[b].size(); ++i)
      out[b][i] = classification(static_cast<BlockId>(b), i, associativity);
  }
  return out;
}

void AgeProfile::classify_set(SetIndex set, std::uint32_t associativity,
                              ClassificationMap& out) const {
  PWCET_EXPECTS(out.size() + 1 == first_ref_.size());
  for (std::size_t b = 0; b < out.size(); ++b)
    for (std::uint32_t k = first_ref_[b]; k < first_ref_[b + 1]; ++k)
      if (set_[k] == set)
        out[b][k - first_ref_[b]] =
            classification(static_cast<BlockId>(b), k - first_ref_[b],
                           associativity);
}

std::uint64_t AgeProfile::payload_bytes() const {
  std::uint64_t bytes =
      (first_ref_.size() + chain_start_.size()) * sizeof(std::uint32_t) +
      set_.size() * sizeof(SetIndex) +
      (must_age_.size() + may_age_.size()) * sizeof(std::uint32_t) +
      scope_chain_.size() * sizeof(LoopId);
  for (const std::vector<std::uint32_t>& lines : scope_lines_)
    bytes += lines.size() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace pwcet
