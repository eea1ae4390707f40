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
/// is the historical "pwcet-dcore-v1" recipe, and the keys chained from it
/// — the per-result distribution artifact and the per-row memo entries —
/// reproduce the keys of the original single-cache and I+D analyzers bit
/// for bit, so artifact directories written by earlier versions keep
/// hitting. The in-memory memo entries of a multi-domain composition are
/// keyed on content instead: "age-profile-v1" per domain profile,
/// "domain-penalty-v1" per domain penalty, "penalty-fold-v1" per fold
/// prefix and "penalty-fold-content-v1" per fold step's input pair (see
/// PwcetOptions::store). All of these recipes are pinned by
/// tests/analysis_pipeline_test.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "analysis/cache_domain.hpp"
#include "prob/discrete_distribution.hpp"
#include "store/key.hpp"

namespace pwcet {

class AnalysisStore;
class ThreadPool;
struct PenaltyBundle;

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
  /// Optional content-addressed store (store/analysis_store.hpp). Its memo
  /// holds the tree engine's per-set FMM rows and, when the composition
  /// has more than one domain, each domain's age profile and penalty and
  /// each fold under content keys, so compositions and engines with equal
  /// inputs share them (a single domain's profile and penalty serve one
  /// pipeline only and are computed directly). With an artifact tier,
  /// each per-(mechanisms, pfail) penalty distribution is also persisted
  /// to disk. Every key captures all inputs of the computation it names
  /// and every computation is deterministic, so results with a store are
  /// byte-identical to cold recomputation at any thread count (asserted
  /// by tests/store_test.cpp and tests/analysis_pipeline_test.cpp). The
  /// store must outlive the pipeline; nullptr computes from scratch.
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

/// Pipeline bound to one (program, domain list) pair. The expensive
/// shared work (reference extraction, one age profile per domain, the
/// fault-free classification, the single IPET/tree phase-1 maximization,
/// all FMM bundles) is done once in the constructor and reused across
/// mechanisms and pfail values.
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
  const FmmBundle& fmm(std::size_t i) const { return fmms_[i]; }

  /// Store key of the pipeline core: program content x every domain's
  /// chained contribution x engine — the prefix the per-result
  /// distribution key chains from. See the header comment for the
  /// compatibility contract.
  const StoreKey& core_key() const { return core_key_; }

 private:
  /// The pfail-independent re-weighting bundle of one mechanism
  /// assignment: per-domain penalty scaffolding shared by every pfail
  /// point that analyze() sees, built once per instance.
  std::shared_ptr<const PenaltyBundle> acquire_bundle(
      const std::vector<Mechanism>& mechanisms) const;

  const Program& program_;
  std::vector<std::shared_ptr<const CacheDomain>> domains_;
  PwcetOptions options_;
  Cycles fault_free_wcet_ = 0;
  std::vector<FmmBundle> fmms_;
  StoreKey core_key_;
  mutable std::mutex bundle_mutex_;
  mutable std::map<std::vector<Mechanism>,
                   std::shared_ptr<const PenaltyBundle>>
      bundle_cache_;
};

}  // namespace pwcet
