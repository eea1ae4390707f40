#include "wcet/cost_model.hpp"

#include "support/contracts.hpp"

namespace pwcet {
namespace {

/// Adds `amount` to the term matching one classified reference:
/// always-hit -> nothing; always-miss / not-classified -> per block
/// execution; first-miss -> per entry of its scope.
void add_miss_expression(CostModel& model, BlockId b, const RefClass& cls,
                         double amount) {
  switch (cls.chmc) {
    case Chmc::kAlwaysHit:
      return;
    case Chmc::kAlwaysMiss:
    case Chmc::kNotClassified:
      model.block_cost[size_t(b)] += amount;
      return;
    case Chmc::kFirstMiss:
      if (cls.scope == kNoLoop)
        model.root_entry_cost += amount;
      else
        model.loop_entry_cost[size_t(cls.scope)] += amount;
      return;
  }
}

}  // namespace

CostModel build_time_cost_model(const ControlFlowGraph& cfg,
                                const ReferenceMap& refs,
                                const ClassificationMap& classification,
                                const CacheConfig& config) {
  CostModel model = CostModel::zero(cfg);
  const auto hit = static_cast<double>(config.hit_latency);
  const auto miss = static_cast<double>(config.miss_penalty);
  for (const BasicBlock& block : cfg.blocks()) {
    const BlockId b = block.id;
    model.block_cost[size_t(b)] +=
        hit * static_cast<double>(block.instruction_count);
    const auto& block_refs = refs[size_t(b)];
    for (std::size_t i = 0; i < block_refs.size(); ++i)
      add_miss_expression(model, b, classification[size_t(b)][i], miss);
  }
  return model;
}

CostModel build_delta_miss_model(const ControlFlowGraph& cfg,
                                 const ReferenceMap& refs, SetIndex set,
                                 const ClassificationMap& fault_free,
                                 const ClassificationMap* faulty,
                                 FullFaultSemantics semantics,
                                 const SrbHitMap* srb_hits) {
  if (semantics == FullFaultSemantics::kSrb && faulty == nullptr)
    PWCET_EXPECTS(srb_hits != nullptr);

  CostModel model = CostModel::zero(cfg);
  for (const BasicBlock& block : cfg.blocks()) {
    const BlockId b = block.id;
    const auto& block_refs = refs[size_t(b)];
    for (std::size_t i = 0; i < block_refs.size(); ++i) {
      const LineRef& r = block_refs[i];
      if (r.set != set) continue;

      // Faulty-side misses (positive terms).
      if (faulty != nullptr) {
        // Partially degraded set: line granularity (spatial hits survive).
        add_miss_expression(model, b, (*faulty)[size_t(b)][i], 1.0);
      } else if (semantics == FullFaultSemantics::kUnprotected) {
        // Fully faulty, no protection: every fetch of the reference misses.
        model.block_cost[size_t(b)] += static_cast<double>(r.fetches);
      } else {
        // Fully faulty with SRB: at most one miss per execution; none if
        // the SRB analysis guarantees the hit.
        if (!(*srb_hits)[size_t(b)][i]) model.block_cost[size_t(b)] += 1.0;
      }

      // Fault-free-side misses (negative terms — the exact expression the
      // fault-free IPET charged for this reference).
      add_miss_expression(model, b, fault_free[size_t(b)][i], -1.0);
    }
  }
  return model;
}

ClassificationMap classify_fault_free(const AgeProfile& profile) {
  return profile.classify(profile.ways());
}

}  // namespace pwcet
