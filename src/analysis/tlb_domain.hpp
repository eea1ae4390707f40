/// \file
/// TlbDomain — the translation-lookaside-buffer row of the pWCET pipeline.
///
/// The TLB is a cache of page translations: set-associative over the
/// *page number*, so it is expressed here as a CacheConfig whose
/// `line_bytes` is the page size and whose sets x ways product is the
/// entry count (geometry axis: entries / ways / page_bytes). A TLB entry
/// covers every instruction fetch, load and store to its page, so the
/// domain's reference stream is the block's *unified* access sequence —
/// fetches, then loads, then stores — at page granularity; consecutive
/// same-page accesses merge into one reference whose `fetches` count
/// prices the catastrophic fully-faulty case exactly like the instruction
/// cache's.
///
/// With the stream fixed, the Must/May/persistence classification, the
/// FMM delta machinery and the fault model's faulty-way weighting apply
/// verbatim — translation entries fault like cache lines (the paper's
/// fabrication-fault model is structure-agnostic SRAM bit failure). The
/// domain charges only incremental TLB miss penalties: a translation hit
/// is folded into the fetch latency the primary domain already charges.
///
/// A secondary domain; its core-key contribution rides the
/// "pwcet-ncore-v1" chaining recipe (the pipeline mixes the domain *name*,
/// so no shipped two-domain key can collide).
#pragma once

#include "analysis/cache_domain.hpp"

namespace pwcet {

class TlbDomain final : public CacheDomain {
 public:
  /// `geometry.line_bytes` is the page size; `geometry.sets * ways` the
  /// TLB entry count; `geometry.miss_penalty` the page-walk cost.
  explicit TlbDomain(const CacheConfig& geometry)
      : CacheDomain("tlb", geometry) {}
};

}  // namespace pwcet
