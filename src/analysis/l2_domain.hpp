/// \file
/// L2Domain — the shared second-level cache row.
///
/// Models a lookup-through unified L2 behind the L1 domains: every
/// reference the core issues — instruction fetch, load, store — probes
/// the L2 in parallel with (or immediately after) its L1 access, and an
/// L2 miss adds `miss_penalty` cycles for the memory refill. The stream
/// is therefore the block's unified access sequence at L2 line
/// granularity, independent of the L1s' hit/miss outcomes.
///
/// That independence is what keeps the composition sound: filtering the
/// L2 stream by L1 misses would couple the L2 classification to the L1
/// *fault state*, breaking the pipeline's per-domain independence (the
/// fixed-shape cross-domain convolution multiplies per-domain atom
/// probabilities, which requires each domain's miss bound to hold for
/// every fault map of the others). In the lookup-through model the L2
/// reference stream is fault-invariant, so the standard classification /
/// FMM / pwf machinery applies verbatim and the per-domain penalties
/// compose by plain addition — exactly the shape the convolution expects.
///
/// The domain charges incremental L2 miss penalties only; L2 hit latency
/// is folded into the L1 costs the primary domain charges. A secondary
/// domain; rows live under "pwcet-l2-rows-v1", and its core-key
/// contribution rides the "pwcet-ncore-v1" chaining recipe.
#pragma once

#include "analysis/cache_domain.hpp"

namespace pwcet {

class L2Domain final : public CacheDomain {
 public:
  explicit L2Domain(const CacheConfig& geometry)
      : CacheDomain("l2", geometry) {}
};

}  // namespace pwcet
