/// \file
/// DcacheDomain — the data-cache row of the pWCET pipeline.
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
/// domain's own: the reference stream (data loads, not fetches), the
/// time-model contribution (miss penalties only — the load instruction's
/// execution cycle is already charged as an instruction fetch by the
/// primary domain), and its place in the "pwcet-dcore-v1" core key of the
/// [icache, dcache] pair.
///
/// A secondary domain: it must be composed after a primary domain that
/// charges the execution-time base costs.
#pragma once

#include "analysis/cache_domain.hpp"

namespace pwcet {

class DcacheDomain final : public CacheDomain {
 public:
  explicit DcacheDomain(const CacheConfig& config)
      : CacheDomain("dcache", config) {}
};

}  // namespace pwcet
