#include "analysis/cache_domain.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace pwcet {

const std::vector<DomainRow>& cache_domain_rows() {
  static const std::vector<DomainRow> kRows = {
      {"icache", {.fetches = true}, true,
       "instruction cache (primary; the paper's pipeline)"},
      {"dcache", {.loads = true}, false,
       "write-through data cache over statically known loads"},
      {"wb-dcache", {.loads = true, .stores = true}, false,
       "write-back data cache: stores allocate, dirty evictions priced"},
      {"tlb", {.fetches = true, .loads = true, .stores = true}, false,
       "translation lookaside buffer; page-granular unified stream"},
      {"l2", {.fetches = true, .loads = true, .stores = true}, false,
       "shared lookup-through L2 behind the L1 domains"},
  };
  return kRows;
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

}  // namespace pwcet
