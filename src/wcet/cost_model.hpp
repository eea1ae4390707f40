// Cost models consumed by the two WCET engines (IPET and loop-tree).
//
// A cost model assigns:
//  * `block_cost[b]`   — cost per execution of basic block b,
//  * `loop_entry_cost[l]` — cost per *entry* of loop l (first-miss
//    references with scope l contribute here, matching the IPET term
//    penalty * x_entry(l)),
//  * `root_entry_cost` — cost incurred once per run (first-miss references
//    persistent across the whole program).
//
// Two instantiations exist: the *time* model (cycles; fetch latencies plus
// miss penalties, used for the fault-free WCET) and the *delta-miss* model
// (fault-induced misses of one degraded set minus the fault-free misses of
// the same references, used for the FMM — paper §II-C "ILP system close to
// IPET"). Costs are doubles because delta models carry negative terms.
#pragma once

#include <vector>

#include "cache/cache_config.hpp"
#include "cache/references.hpp"
#include "cfg/cfg.hpp"
#include "icache/chmc.hpp"
#include "icache/age_profile.hpp"
#include "icache/srb_analysis.hpp"

namespace pwcet {

struct CostModel {
  std::vector<double> block_cost;       // indexed by BlockId
  std::vector<double> loop_entry_cost;  // indexed by LoopId
  double root_entry_cost = 0.0;

  static CostModel zero(const ControlFlowGraph& cfg) {
    CostModel m;
    m.block_cost.assign(cfg.block_count(), 0.0);
    m.loop_entry_cost.assign(cfg.loops().size(), 0.0);
    return m;
  }
};

/// Fault-free time model (cycles): every fetch costs hit_latency; each
/// always-miss / not-classified reference adds miss_penalty per execution;
/// each first-miss reference adds miss_penalty per entry of its scope.
CostModel build_time_cost_model(const ControlFlowGraph& cfg,
                                const ReferenceMap& refs,
                                const ClassificationMap& classification,
                                const CacheConfig& config);

/// How the degraded set serves references when *all* its ways are faulty.
enum class FullFaultSemantics {
  kUnprotected,  ///< every fetch misses: k(r) misses per execution (kNone)
  kSrb,          ///< 0 misses if SRB-always-hit, else 1 per execution
};

/// Delta-miss model for `FMM[set][faulty_ways]` (unit: misses).
///
/// For every reference mapping to `set`, adds the miss expression under the
/// degraded classification and subtracts the fault-free miss expression —
/// the exact terms the corresponding IPET objectives use, so that
/// WCET_faulty(P) <= WCET_ff + penalty * delta(P) holds path-wise.
///
/// Both maps are read only at `set`'s references. `faulty` must classify
/// them at associativity W - f for f < W; for f == W pass nullptr and
/// choose the semantics (`kUnprotected` counts every fetch, `kSrb` consults
/// `srb_hits`).
CostModel build_delta_miss_model(const ControlFlowGraph& cfg,
                                 const ReferenceMap& refs, SetIndex set,
                                 const ClassificationMap& fault_free,
                                 const ClassificationMap* faulty,
                                 FullFaultSemantics semantics,
                                 const SrbHitMap* srb_hits);

/// Classification of every reference under a fault-free cache
/// (associativity W in every set).
ClassificationMap classify_fault_free(const AgeProfile& profile);

}  // namespace pwcet
