#include "analysis/dcache_domain.hpp"

namespace pwcet {

ReferenceMap extract_data_references(const ControlFlowGraph& cfg,
                                     const CacheConfig& dcache) {
  dcache.validate();
  ReferenceMap refs(cfg.block_count());
  for (const BasicBlock& b : cfg.blocks()) {
    auto& seq = refs[size_t(b.id)];
    for (Address a : b.data_addresses) {
      const LineAddress line = dcache.line_of(a);
      if (!seq.empty() && seq.back().line == line) {
        ++seq.back().fetches;
      } else {
        seq.push_back({line, dcache.set_of_line(line), 1});
      }
    }
  }
  return refs;
}

StoreKey DcacheDomain::row_key_prefix(const Program& program,
                                      WcetEngine engine) const {
  return KeyHasher("pwcet-dcache-rows-v1")
      .mix_key(hash_program(program))
      .mix_key(hash_cache_config(config_))
      .mix_u64(static_cast<std::uint64_t>(engine))
      .finish();
}

CostModel DcacheDomain::time_cost_model(const Program& program,
                                        const ReferenceMap& refs,
                                        const ClassificationMap& cls) const {
  // Loads contribute miss penalties only: the load instruction's execution
  // cycle is already charged as an instruction fetch by the primary domain.
  const ControlFlowGraph& cfg = program.cfg();
  CostModel model = CostModel::zero(cfg);
  const auto miss = static_cast<double>(config_.miss_penalty);
  for (const BasicBlock& block : cfg.blocks()) {
    for (std::size_t i = 0; i < refs[size_t(block.id)].size(); ++i) {
      const RefClass& ref_class = cls[size_t(block.id)][i];
      switch (ref_class.chmc) {
        case Chmc::kAlwaysHit:
          break;
        case Chmc::kAlwaysMiss:
        case Chmc::kNotClassified:
          model.block_cost[size_t(block.id)] += miss;
          break;
        case Chmc::kFirstMiss:
          if (ref_class.scope == kNoLoop)
            model.root_entry_cost += miss;
          else
            model.loop_entry_cost[size_t(ref_class.scope)] += miss;
          break;
      }
    }
  }
  return model;
}

}  // namespace pwcet
