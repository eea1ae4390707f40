/// \file
/// IcacheDomain — the instruction-cache row of the pWCET pipeline.
///
/// The paper's primary subject: the per-block instruction-fetch line
/// stream analyzed against one cache geometry. As the pipeline's primary
/// domain it charges the full time model (fetch latencies plus miss
/// penalties); a pipeline of this domain alone has the single-cache
/// analyzer-core key (pwcet_core_key).
#pragma once

#include "analysis/cache_domain.hpp"

namespace pwcet {

class IcacheDomain final : public CacheDomain {
 public:
  explicit IcacheDomain(const CacheConfig& config)
      : CacheDomain("icache", config) {}
};

}  // namespace pwcet
