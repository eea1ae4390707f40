#include "analysis/cache_domain.hpp"

#include <algorithm>
#include <cstdint>

namespace pwcet {

const std::vector<DomainRow>& cache_domain_rows() {
  static const std::vector<DomainRow> kRows = {
      {"icache", {.fetches = true}, true, "pwcet-core-v1",
       "instruction cache (primary; the paper's pipeline)"},
      {"dcache", {.loads = true}, false, "pwcet-dcache-rows-v1",
       "write-through data cache over statically known loads"},
      {"wb-dcache", {.loads = true, .stores = true}, false,
       "pwcet-wbdcache-rows-v1",
       "write-back data cache: stores allocate, dirty evictions priced"},
      {"tlb", {.fetches = true, .loads = true, .stores = true}, false,
       "pwcet-tlb-rows-v1",
       "translation lookaside buffer; page-granular unified stream"},
      {"l2", {.fetches = true, .loads = true, .stores = true}, false,
       "pwcet-l2-rows-v1", "shared lookup-through L2 behind the L1 domains"},
  };
  return kRows;
}

namespace {

StoreKey domain_key(const char* tag, const Program& program,
                    const CacheConfig& config, WcetEngine engine) {
  return KeyHasher(tag)
      .mix_key(hash_program(program))
      .mix_key(hash_cache_config(config))
      .mix_u64(static_cast<std::uint64_t>(engine))
      .finish();
}

}  // namespace

// The icache row's tag: its FMM-row prefix and the single-cache core key
// are one recipe.
StoreKey pwcet_core_key(const Program& program, const CacheConfig& config,
                        WcetEngine engine) {
  return domain_key(cache_domain_rows().front().row_tag, program, config,
                    engine);
}

CacheDomain::CacheDomain(std::string_view name, const CacheConfig& config)
    : config_(config) {
  const std::vector<DomainRow>& rows = cache_domain_rows();
  const auto row =
      std::find_if(rows.begin(), rows.end(),
                   [name](const DomainRow& r) { return r.name == name; });
  PWCET_EXPECTS(row != rows.end());
  row_ = &*row;
  config_.validate();
}

StoreKey CacheDomain::row_key_prefix(const Program& program,
                                     WcetEngine engine) const {
  return domain_key(row_->row_tag, program, config_, engine);
}

}  // namespace pwcet
