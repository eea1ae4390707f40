/// \file
/// DcacheDomain — the data-cache plugin of the pWCET pipeline.
///
/// Scope (paper §VI future work): loads from *statically known* addresses
/// — scalars, constant tables, spill slots — recorded per basic block by
/// the program builder. Input-dependent accesses are outside this
/// extension's scope (sound treatment would classify them not-classified;
/// they simply cannot be expressed). Stores are not modeled (read-only
/// data, or write-through / no-allocate semantics).
///
/// Under these restrictions the data cache is formally identical to the
/// instruction cache — an address stream per block — so the Must/May/
/// persistence analyses, the FMM delta machinery and the penalty pipeline
/// apply verbatim to the *data* reference map; only three things are the
/// domain's own: the reference extraction (data addresses, not fetches),
/// the time-model contribution (miss penalties only — the load
/// instruction's execution cycle is already charged as an instruction
/// fetch by the primary domain), and the store-key sub-domain
/// ("pwcet-dcache-rows-v1": a data reference map must never alias an
/// instruction one, even when the two cache configs coincide).
///
/// A secondary domain (standalone() == false): it must be composed after
/// a primary domain that charges the execution-time base costs.
#pragma once

#include <cstdint>

#include "analysis/cache_domain.hpp"

namespace pwcet {

/// Extracts the per-block *data* line references (analogue of
/// extract_references for instruction fetches). Consecutive same-line
/// loads within a block merge, mirroring spatial locality.
ReferenceMap extract_data_references(const ControlFlowGraph& cfg,
                                     const CacheConfig& dcache);

class DcacheDomain final : public CacheDomain {
 public:
  explicit DcacheDomain(const CacheConfig& config) : config_(config) {
    config_.validate();
  }

  std::string_view name() const override { return "dcache"; }
  const CacheConfig& config() const override { return config_; }
  bool standalone() const override { return false; }

  StoreKey row_key_prefix(const Program& program,
                          WcetEngine engine) const override;

  ReferenceMap extract(const Program& program) const override {
    return extract_data_references(program.cfg(), config_);
  }

  CostModel time_cost_model(const Program& program, const ReferenceMap& refs,
                            const ClassificationMap& cls) const override;

 private:
  CacheConfig config_;
};

}  // namespace pwcet
