#include "icache/set_analysis.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "icache/abstract_set.hpp"
#include "support/contracts.hpp"

namespace pwcet {

SetAnalysis::SetAnalysis(const ControlFlowGraph& cfg, const ReferenceMap& refs,
                         SetIndex set, std::uint32_t associativity)
    : set_(set), associativity_(associativity) {
  const std::size_t n = cfg.block_count();
  must_hit_.resize(n);
  may_present_.resize(n);
  persistent_scope_.resize(n);
  result_.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    const std::size_t r = refs[b].size();
    must_hit_[b].assign(r, 0);
    may_present_[b].assign(r, 1);
    persistent_scope_[b].assign(r, kNoScope);
    result_[b].assign(r, RefClass{});
  }
  if (associativity_ > 0) {
    run_fixpoints(cfg, refs);
    run_persistence(cfg, refs);
  } else {
    // A disabled set caches nothing; scope bookkeeping is still collected
    // for diagnostics.
    run_persistence(cfg, refs);
    for (auto& scopes : persistent_scope_)
      std::fill(scopes.begin(), scopes.end(), kNoScope);
  }
  classify(cfg, refs);
}

void SetAnalysis::run_fixpoints(const ControlFlowGraph& cfg,
                                const ReferenceMap& refs) {
  const std::size_t n = cfg.block_count();
  // std::optional distinguishes "not yet reached" (join identity) from the
  // reachable empty-cache state.
  std::vector<std::optional<MustState>> must_in(n), must_out(n);
  std::vector<std::optional<MayState>> may_in(n), may_out(n);

  const auto order = cfg.reverse_post_order();

  auto transfer_must = [&](BlockId b, MustState state) {
    for (const LineRef& r : refs[size_t(b)])
      if (r.set == set_) state.access(r.line, associativity_);
    return state;
  };
  auto transfer_may = [&](BlockId b, MayState state) {
    for (const LineRef& r : refs[size_t(b)])
      if (r.set == set_) state.access(r.line, associativity_);
    return state;
  };

  must_in[size_t(cfg.entry())] = MustState{};  // cold cache
  may_in[size_t(cfg.entry())] = MayState{};

  bool changed = true;
  while (changed) {
    changed = false;
    for (BlockId b : order) {
      // Join predecessors (entry keeps its cold-start state as a baseline;
      // a back edge into the entry is impossible by construction).
      if (b != cfg.entry()) {
        std::optional<MustState> must_join;
        std::optional<MayState> may_join;
        for (EdgeId e : cfg.block(b).in_edges) {
          const BlockId pred = cfg.edge(e).source;
          if (must_out[size_t(pred)]) {
            must_join = must_join ? MustState::join(*must_join,
                                                    *must_out[size_t(pred)])
                                  : *must_out[size_t(pred)];
          }
          if (may_out[size_t(pred)]) {
            may_join = may_join
                           ? MayState::join(*may_join, *may_out[size_t(pred)])
                           : *may_out[size_t(pred)];
          }
        }
        must_in[size_t(b)] = std::move(must_join);
        may_in[size_t(b)] = std::move(may_join);
      }
      if (!must_in[size_t(b)]) continue;  // unreachable this round

      auto new_must_out = transfer_must(b, *must_in[size_t(b)]);
      auto new_may_out = transfer_may(b, *may_in[size_t(b)]);
      if (!must_out[size_t(b)] || !(*must_out[size_t(b)] == new_must_out) ||
          !may_out[size_t(b)] || !(*may_out[size_t(b)] == new_may_out)) {
        must_out[size_t(b)] = std::move(new_must_out);
        may_out[size_t(b)] = std::move(new_may_out);
        changed = true;
      }
    }
  }

  // Final pass: per-reference facts from the stabilized IN states.
  for (BlockId b = 0; static_cast<std::size_t>(b) < n; ++b) {
    if (!must_in[size_t(b)]) continue;
    MustState must = *must_in[size_t(b)];
    MayState may = *may_in[size_t(b)];
    const auto& block_refs = refs[size_t(b)];
    for (std::size_t i = 0; i < block_refs.size(); ++i) {
      const LineRef& r = block_refs[i];
      if (r.set != set_) continue;
      must_hit_[size_t(b)][i] = must.contains(r.line) ? 1 : 0;
      may_present_[size_t(b)][i] = may.contains(r.line) ? 1 : 0;
      must.access(r.line, associativity_);
      may.access(r.line, associativity_);
    }
  }
}

void SetAnalysis::run_persistence(const ControlFlowGraph& cfg,
                                  const ReferenceMap& refs) {
  // Distinct lines of this set per scope. Scope index 0 is the whole
  // program; scope 1 + l is loop l.
  const auto& loops = cfg.loops();
  std::vector<std::set<LineAddress>> scope_lines(1 + loops.size());

  for (const BasicBlock& block : cfg.blocks()) {
    for (const LineRef& r : refs[size_t(block.id)]) {
      if (r.set != set_) continue;
      scope_lines[0].insert(r.line);
      for (LoopId l = cfg.innermost_loop(block.id); l != kNoLoop;
           l = loops[size_t(l)].parent) {
        scope_lines[1 + size_t(l)].insert(r.line);
      }
    }
  }

  scope_distinct_lines_.resize(scope_lines.size());
  for (std::size_t i = 0; i < scope_lines.size(); ++i)
    scope_distinct_lines_[i] = scope_lines[i].size();

  if (associativity_ == 0) return;

  // A line is persistent in a scope iff all set-mapped lines referenced in
  // that scope fit in the (possibly degraded) associativity: once loaded it
  // can never be evicted within the scope. Pick the *outermost* such scope.
  for (const BasicBlock& block : cfg.blocks()) {
    // Scope chain from outermost: whole program, then loops outer->inner.
    std::vector<LoopId> chain{kNoLoop};
    {
      std::vector<LoopId> inner_to_outer;
      for (LoopId l = cfg.innermost_loop(block.id); l != kNoLoop;
           l = loops[size_t(l)].parent)
        inner_to_outer.push_back(l);
      chain.insert(chain.end(), inner_to_outer.rbegin(),
                   inner_to_outer.rend());
    }
    for (std::size_t i = 0; i < refs[size_t(block.id)].size(); ++i) {
      if (refs[size_t(block.id)][i].set != set_) continue;
      for (LoopId scope : chain) {
        const std::size_t idx = (scope == kNoLoop) ? 0 : 1 + size_t(scope);
        if (scope_distinct_lines_[idx] <= associativity_) {
          persistent_scope_[size_t(block.id)][i] = scope;
          break;
        }
      }
    }
  }
}

void SetAnalysis::classify(const ControlFlowGraph& cfg,
                           const ReferenceMap& refs) {
  for (const BasicBlock& block : cfg.blocks()) {
    for (std::size_t i = 0; i < refs[size_t(block.id)].size(); ++i) {
      if (refs[size_t(block.id)][i].set != set_) continue;
      RefClass& out = result_[size_t(block.id)][i];
      if (associativity_ > 0 && must_hit_[size_t(block.id)][i]) {
        out = {Chmc::kAlwaysHit, kNoLoop};
      } else if (associativity_ > 0 &&
                 persistent_scope_[size_t(block.id)][i] != kNoScope) {
        out = {Chmc::kFirstMiss, persistent_scope_[size_t(block.id)][i]};
      } else if (associativity_ == 0 ||
                 !may_present_[size_t(block.id)][i]) {
        out = {Chmc::kAlwaysMiss, kNoLoop};
      } else {
        out = {Chmc::kNotClassified, kNoLoop};
      }
    }
  }
}

RefClass SetAnalysis::classification(BlockId b, std::size_t ref_index) const {
  return result_[size_t(b)][ref_index];
}

}  // namespace pwcet
