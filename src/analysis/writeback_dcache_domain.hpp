/// \file
/// WritebackDcacheDomain — the write-back, write-allocate data-cache row.
///
/// The shipped DcacheDomain models a write-through/no-allocate data cache:
/// stores never touch it, so only loads appear in its stream. This domain
/// models the other common policy: stores allocate into the cache and mark
/// their line dirty; evicting a dirty line costs an extra write-back of
/// `writeback_penalty` cycles on top of the refill.
///
/// Dirty state does not change *which* accesses hit — write-allocate LRU
/// replacement is identical for loads and stores — so the fault-free
/// classification and the FMM miss bounds are exactly the write-through
/// machinery run over the loads-then-stores stream. What changes is the
/// *price* of a miss. The domain folds the write-back cost into an
/// effective geometry:
///
///     effective miss_penalty = refill miss_penalty + writeback_penalty
///
/// which `config()` exposes to the whole pipeline, so the time model, the
/// per-set penalty atoms and the cross-domain convolution automatically
/// price every miss at refill + write-back. This is sound: write-backs
/// are caused by evictions, each miss evicts at most one line, and only
/// dirty evictions write back, so on every path and under every fault map
///
///     true cost = misses x refill + writebacks x wb
///               <= misses x (refill + wb)  [writebacks <= misses]
///
/// i.e. the analytic bound dominates the true worst case per atom (the
/// exhaustive-oracle suite enumerates this against a cycle-accurate
/// write-back simulator). Residual dirty lines at end of run are not
/// flushed — the task's deadline covers its own accesses only.
///
/// A secondary domain; its core-key contribution rides the
/// "pwcet-ncore-v1" chaining recipe.
#pragma once

#include "analysis/cache_domain.hpp"

namespace pwcet {

class WritebackDcacheDomain final : public CacheDomain {
 public:
  /// `geometry.miss_penalty` is the refill cost; `writeback_penalty` the
  /// extra cost of writing a dirty victim back to memory.
  WritebackDcacheDomain(const CacheConfig& geometry, Cycles writeback_penalty)
      : CacheDomain("wb-dcache", effective(geometry, writeback_penalty)) {}

 private:
  static CacheConfig effective(CacheConfig geometry,
                               Cycles writeback_penalty) {
    PWCET_EXPECTS(writeback_penalty >= 0);
    geometry.miss_penalty += writeback_penalty;
    return geometry;
  }
};

}  // namespace pwcet
