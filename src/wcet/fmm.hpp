// Fault Miss Map computation (paper §II-C, Fig. 1.a, and §III-B).
//
// FMM[s][f] upper-bounds the number of *fault-induced misses* when set s
// has f faulty (disabled) blocks, maximized over all feasible paths with an
// "ILP system close to IPET": the IPET constraint system with a delta-miss
// objective (misses under the degraded set minus the fault-free misses of
// the same references). Mechanisms change the f == W column only:
//   * no protection — every fetch of the set misses (spatial locality lost,
//     the catastrophic case motivating the paper);
//   * SRB — references classified always-hit by the SRB analysis are
//     removed (§III-B.2); the rest miss at most once per execution;
//   * RW  — the column is unreachable (Eq. 3 has no f == W point) and is
//     reported as 0 / unused.
#pragma once

#include <cstdint>
#include <vector>

#include "cfg/program.hpp"
#include "fault/fault_model.hpp"
#include "wcet/cost_model.hpp"
#include "wcet/ipet.hpp"

namespace pwcet {

class AnalysisStore;
struct StoreKey;
class ThreadPool;

/// Which engine maximizes the delta objectives.
enum class WcetEngine : std::uint8_t {
  kIlp,   ///< IPET via the shared simplex (paper-faithful; LP bound)
  kTree,  ///< structural loop-tree engine (exact on structured CFGs, fast)
};

/// The fault miss map: misses[s][f], f = 0..W. Row entries are sound upper
/// bounds on fault-induced misses (unit: misses, not cycles).
struct FaultMissMap {
  std::vector<std::vector<double>> misses;

  double at(SetIndex s, std::uint32_t f) const {
    return misses[size_t(s)][size_t(f)];
  }
};

/// FMMs of all three mechanisms. The f < W columns are mechanism-
/// independent and computed once; only the f == W column differs
/// (none: per-fetch misses; SRB: SRB-analysis-filtered; RW: unreachable).
struct FmmBundle {
  FaultMissMap none;
  FaultMissMap rw;
  FaultMissMap srb;

  const FaultMissMap& of(Mechanism m) const {
    switch (m) {
      case Mechanism::kNone:
        return none;
      case Mechanism::kReliableWay:
        return rw;
      case Mechanism::kSharedReliableBuffer:
        return srb;
    }
    return none;
  }
};

/// Computes the FMMs of all three mechanisms.
///
/// `profile` must be the age profile of `refs` at `config.ways`: every
/// column's classification is derived from it by threshold, so no set is
/// re-analyzed per fault count.
///
/// The `ipet` calculator must belong to `program`; it is reused across all
/// (set, f) objectives (one phase-1 total). Pass nullptr with
/// `engine == kTree`.
///
/// Sets whose canonical reference signatures coincide share one row
/// computation (see fmm.cpp); the bundle is bit-identical to computing
/// every used set on its own (pinned by tests/wcet_test.cpp).
///
/// With a `pool` and `engine == kTree`, the per-set rows (independent by
/// construction) are fanned out across the pool; results are identical to
/// the serial computation. The ILP engine always runs serially even with a
/// pool: its warm-started shared simplex is stateful, and fresh per-set
/// calculators would perturb LP round-off and break the byte-identity
/// guarantee between 1-thread and N-thread campaign runs.
///
/// With a `store` (store/analysis_store.hpp) and `engine == kTree`, each
/// used set's three rows are memoized under `row_key_prefix` (which must
/// cover program + config) chained with the set index, so the pipelines
/// of every composition a domain joins share its rows. The ILP engine is
/// *not* row-memoized on purpose: skipping some maximize() calls would
/// change the shared simplex's warm-start sequence for the remaining ones
/// and perturb LP round-off, so an ILP bundle is always computed whole, in
/// the exact call sequence.
FmmBundle compute_fmm_bundle(const Program& program,
                             const CacheConfig& config,
                             const ReferenceMap& refs,
                             const AgeProfile& profile, WcetEngine engine,
                             IpetCalculator* ipet, ThreadPool* pool = nullptr,
                             AnalysisStore* store = nullptr,
                             const StoreKey* row_key_prefix = nullptr);

}  // namespace pwcet
