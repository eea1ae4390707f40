/// \file
/// PwcetPipeline — the single pWCET analysis flow, composing N >= 1
/// CacheDomains (the paper's contribution, §II-B/C and §III-B).
///
/// Given a task, a list of cache domains (analysis/cache_domain.hpp), a
/// cell failure probability and per-domain reliability mechanisms,
/// produces the pWCET distribution:
///
///   1. fault-free WCET: each domain's reference stream is analyzed once
///      per used set at full associativity (its age profile) and
///      classified, the per-domain time models are summed, and a single
///      static maximization (IPET §II-B or the loop-tree engine) bounds
///      the whole program;
///   2. per-domain FMM via per-(set, fault-count) delta maximization
///      (§II-C, §III-B), each degraded column classified by thresholding
///      the same profile;
///   3. per-set penalty distributions {(miss_penalty * FMM[s][f], pwf(f))}
///      with pwf from Eq. (2) (none/SRB) or Eq. (3) (RW);
///   4. convolution across independent sets (Fig. 1.b), then across
///      domains (physically disjoint SRAM arrays fail independently), both
///      with conservative support coalescing and a fixed reduction shape;
///   5. pWCET(p) = fault-free WCET + penalty quantile at exceedance p.
///
/// One domain gives the paper's instruction-cache analysis; [icache,
/// dcache] gives the combined I+D extension; any further domain composes
/// the same way. This is the only SPTA entry point: the campaign runner,
/// the benches, the examples and the tests all construct it directly.
///
/// Store-key compatibility contract: the pipeline core key of a
/// single-IcacheDomain composition is the historical "pwcet-core-v1"
/// recipe (pwcet_core_key), that of the [IcacheDomain, DcacheDomain] pair
/// is the historical "pwcet-dcore-v1" recipe, and the per-result
/// distribution artifact chained from it reproduces the keys of the
/// original single-cache and I+D analyzers bit for bit, so artifact
/// directories written by earlier versions keep hitting. The in-memory
/// memo entries of a multi-domain composition are keyed on the content of
/// their inputs instead (see PwcetOptions::store). All of these recipes
/// are pinned by tests/analysis_pipeline_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/cache_domain.hpp"
#include "prob/discrete_distribution.hpp"
#include "store/key.hpp"
#include "wcet/fmm.hpp"

namespace pwcet {

class AnalysisStore;
class MemoCache;
class ThreadPool;

/// Store key of a single-cache analyzer core, the historical
/// "pwcet-core-v1" recipe: program content x cache config x engine. It is
/// the core key of an instruction-only pipeline.
StoreKey pwcet_core_key(const Program& program, const CacheConfig& config,
                        WcetEngine engine);

struct PwcetOptions {
  /// Engine for the fault-free WCET and the FMM delta maximizations.
  WcetEngine engine = WcetEngine::kIlp;
  /// Max support points kept between convolutions (conservative
  /// coalescing; larger = tighter, slower).
  std::size_t max_distribution_points = 2048;
  /// Optional worker pool (engine/thread_pool.hpp). When set, the
  /// independent per-set work — penalty-distribution construction, the
  /// pairwise convolution rounds, and (tree engine only) the FMM rows —
  /// fans out across the pool. Results are identical with and without a
  /// pool, at any thread count: work is partitioned by set index and the
  /// convolution tree has a fixed shape. The pool must outlive the
  /// pipeline; nullptr runs everything on the calling thread.
  ThreadPool* pool = nullptr;
  /// Optional content-addressed store (store/analysis_store.hpp). One
  /// rule decides the memo: a pipeline with a store and more than one
  /// domain shares four objects through it, each under a key on the
  /// content of its inputs, so that the compositions of a task reuse
  /// them; every other pipeline computes directly (a single domain's
  /// objects serve that pipeline only). The four are each domain's age
  /// profile ("age-profile-v1": program, access streams, sets, ways, line
  /// size), each domain's tree-engine FMM bundle ("tree-fmm-v1", chained
  /// from the profile key, whose inputs are all it reads), each domain's
  /// penalty ("domain-penalty-v1") and each fold step
  /// ("penalty-fold-content-v1": both inputs atom by atom). ILP bundles
  /// are not shared: the warm-started simplex makes them depend on the
  /// whole composition. With an artifact tier, each per-(mechanisms,
  /// pfail) penalty distribution is also persisted to disk. Every key
  /// captures all inputs of the computation it names and every
  /// computation is deterministic, so results with a store are
  /// byte-identical to cold recomputation at any thread count (asserted by
  /// tests/store_test.cpp and tests/analysis_pipeline_test.cpp). The store
  /// must outlive the pipeline; nullptr computes from scratch.
  AnalysisStore* store = nullptr;
};

/// Full result of one mechanism assignment.
struct PwcetResult {
  Mechanism mechanism = Mechanism::kNone;  ///< primary domain's mechanism
  Cycles fault_free_wcet = 0;
  DiscreteDistribution penalty;  ///< fault-induced penalty (cycles)

  /// pWCET at exceedance probability p: the value the WCET random variable
  /// exceeds with probability at most p (e.g. p = 1e-15 for Fig. 4).
  Cycles pwcet(Probability p) const {
    return fault_free_wcet + penalty.quantile_exceedance(p);
  }

  /// Exceedance probability of a given WCET value (Fig. 3 y-axis).
  Probability exceedance(Cycles wcet) const {
    return penalty.exceedance(wcet - fault_free_wcet);
  }
};

/// Pfail-independent penalty scaffolding of one domain under one
/// mechanism: everything analyze() needs below the pwf weighting. Every
/// pfail point of a sweep re-weights the same scaffold and pays only the
/// weighting and the convolutions.
struct PenaltyScaffold {
  /// Distinct FMM rows, numbered in first-set order; `row_of_set` maps
  /// each cache set to its row. Sets sharing a row (untouched sets,
  /// symmetric layouts) share one penalty distribution per pfail and one
  /// subtree per convolution round.
  std::vector<std::uint32_t> row_of_set;
  /// Raw per-row miss counts, kept verbatim because they are the
  /// "domain-penalty-v1" key material.
  std::vector<std::vector<double>> rows;
  /// Precomputed atom values per row: ceil(misses) * miss_penalty (paper
  /// Fig. 1.b), one per possible fault count.
  std::vector<std::vector<Cycles>> penalties;
};

/// Pipeline bound to one (program, domain list) pair. The expensive
/// shared work (reference extraction, one age profile per domain, the
/// fault-free classification, the single IPET/tree phase-1 maximization,
/// all FMM bundles and each domain's penalty scaffold per mechanism) is
/// done once in the constructor and reused across mechanisms and pfail
/// values; analyze() only reads it, so concurrent calls take no lock.
class PwcetPipeline {
 public:
  /// `domains` must be non-empty and its first entry standalone()
  /// (secondary domains charge incremental penalties only and cannot lead
  /// a composition). The program must outlive the pipeline; domains are
  /// shared (immutable) and kept alive by the pipeline.
  PwcetPipeline(const Program& program,
                std::vector<std::shared_ptr<const CacheDomain>> domains,
                const PwcetOptions& options = {});

  /// Fault-free (deterministic) WCET in cycles, all domains included.
  Cycles fault_free_wcet() const { return fault_free_wcet_; }

  /// pWCET analysis with one mechanism per domain (same order as the
  /// domain list; must match its length).
  PwcetResult analyze(const FaultModel& faults,
                      const std::vector<Mechanism>& mechanisms) const;

  /// pWCET analysis with the same mechanism deployed on every domain.
  PwcetResult analyze(const FaultModel& faults, Mechanism mechanism) const;

  const Program& program() const { return program_; }
  std::size_t domain_count() const { return domains_.size(); }
  const CacheDomain& domain(std::size_t i) const { return *domains_[i]; }

  /// FMM bundle of domain i (same order as the domain list).
  const FmmBundle& fmm(std::size_t i) const { return *fmms_[i]; }

  /// Store key of the pipeline core: program content x every domain's
  /// chained contribution x engine — the prefix the per-result
  /// distribution key chains from. See the header comment for the
  /// compatibility contract.
  const StoreKey& core_key() const { return core_key_; }

 private:
  const Program& program_;
  std::vector<std::shared_ptr<const CacheDomain>> domains_;
  PwcetOptions options_;
  /// The store's memo when the pipeline memoizes (see PwcetOptions::store),
  /// else nullptr.
  MemoCache* memo_ = nullptr;
  Cycles fault_free_wcet_ = 0;
  std::vector<std::shared_ptr<const FmmBundle>> fmms_;
  /// Per domain, its penalty scaffold under each mechanism, indexed by
  /// the Mechanism value.
  std::vector<std::array<PenaltyScaffold, 3>> scaffolds_;
  StoreKey core_key_;
};

}  // namespace pwcet
