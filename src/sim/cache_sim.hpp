// Cycle-accurate instruction-cache simulator with permanent faults and the
// two reliability mechanisms of the paper (§III-A).
//
// Semantics:
//  * kNone — faulty blocks are disabled; the LRU stack of a set shrinks by
//    its number of faulty blocks (§II-A). A fully faulty set caches nothing:
//    every fetch mapping there misses.
//  * kReliableWay — way 0 is hardened; a fault recorded there is masked, so
//    every set keeps at least one usable way.
//  * kSharedReliableBuffer — one hardened line-sized buffer shared by all
//    sets, looked up only when the referenced set is fully faulty; on an SRB
//    miss the missing line is loaded into the SRB (§III-A.2).
//
// This is the validation oracle for the static analysis: simulated times
// must never exceed the static bounds.
#pragma once

#include <vector>

#include "cache/cache_config.hpp"
#include "fault/fault_map.hpp"
#include "fault/fault_model.hpp"
#include "support/types.hpp"

namespace pwcet {

/// Aggregate statistics of one simulated run.
struct SimStats {
  Cycles cycles = 0;
  std::uint64_t fetches = 0;
  std::uint64_t misses = 0;
  std::uint64_t srb_hits = 0;
  std::vector<std::uint64_t> misses_per_set;
};

/// Stateful simulator; create one per run (starts with a cold cache).
class CacheSimulator {
 public:
  CacheSimulator(const CacheConfig& config, const FaultMap& faults,
                 Mechanism mechanism);

  /// Simulates one instruction fetch; returns true on hit (cache or SRB).
  bool fetch(Address address);

  /// Runs a whole fetch trace through `this`.
  void run(const std::vector<Address>& trace);

  const SimStats& stats() const { return stats_; }

  /// Usable LRU depth of a set under the configured mechanism.
  std::uint32_t usable_ways(SetIndex s) const { return usable_[s]; }

 private:
  bool lookup_lru(SetIndex s, LineAddress line);

  CacheConfig config_;
  Mechanism mechanism_;
  // Per set: usable ways, counted once from the fault map.
  std::vector<std::uint32_t> usable_;
  // Per set: MRU-first stack of resident lines (size <= usable ways).
  std::vector<std::vector<LineAddress>> lru_;
  bool srb_valid_ = false;
  LineAddress srb_line_ = 0;
  SimStats stats_;
};

/// Convenience wrapper: cold-start simulation of a trace.
SimStats simulate_trace(const CacheConfig& config, const FaultMap& faults,
                        Mechanism mechanism,
                        const std::vector<Address>& trace);

/// Statistics of one write-back simulation. `writebacks` counts dirty
/// evictions (normal sets and the SRB alike); residual dirty lines at the
/// end of the run are not flushed and not counted.
struct WritebackSimStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
};

/// Write-back, write-allocate variant of CacheSimulator — the exhaustive
/// oracle for WritebackDcacheDomain. Replacement (LRU over the usable
/// ways, SRB for fully faulty sets) is identical to CacheSimulator; the
/// additions are the per-line dirty bit set by store hits and allocating
/// stores, and the write-back count bumped whenever a dirty victim is
/// evicted (including a dirty SRB line displaced by an SRB refill).
class WritebackCacheSimulator {
 public:
  WritebackCacheSimulator(const CacheConfig& config, const FaultMap& faults,
                          Mechanism mechanism);

  /// Simulates one data access; returns true on hit (cache or SRB).
  bool access(Address address, bool is_store);

  const WritebackSimStats& stats() const { return stats_; }

 private:
  CacheConfig config_;
  Mechanism mechanism_;
  // Per set: usable ways, counted once from the fault map.
  std::vector<std::uint32_t> usable_;
  struct Way {
    LineAddress line = 0;
    bool dirty = false;
  };
  // Per set: MRU-first stack of resident lines (size <= usable ways).
  std::vector<std::vector<Way>> lru_;
  bool srb_valid_ = false;
  bool srb_dirty_ = false;
  LineAddress srb_line_ = 0;
  WritebackSimStats stats_;
};

}  // namespace pwcet
