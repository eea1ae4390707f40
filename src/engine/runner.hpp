/// \file
/// Campaign execution on the thread pool.
///
/// Jobs sharing a (task, geometry, engine) prefix also share the expensive
/// analyzer state (reference extraction, fault-free IPET, FMM bundle), so
/// the runner groups them: each group is one pool task that builds its
/// shared state once (the program, and the pipeline when the group has an
/// SPTA cell) and then fans its jobs out on the *same* pool, one task per
/// job, writing results into pre-sized slots indexed by job position. A
/// group's jobs may run in any order and on any worker, so idle workers
/// take jobs from the largest group instead of waiting for it. A single
/// analysis additionally fans its per-set work out on that pool too
/// (workers help while waiting, so nesting cannot deadlock).
///
/// Groups are submitted in *cache-aware order* — sorted by their shared
/// store-key prefix (campaign_group_key) rather than by axis indices — so
/// groups reusing the same memoized sub-results run back to back and stay
/// hot in the store's bounded LRU. Slot-indexed collection makes the
/// submission order invisible in the output.
///
/// Determinism contract: for a fixed spec, the CampaignResult — and hence
/// any report rendered from it — is byte-identical for every thread count,
/// with or without the store, cold or warm. This relies on (a) slot-indexed
/// result collection, (b) per-job seeds derived from job keys, (c)
/// fixed-shape parallel reductions inside the analyzer (see
/// analysis/pipeline.hpp), and (d) store keys that capture every input of
/// the deterministic computation they name (see store/analysis_store.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "engine/campaign.hpp"
#include "store/analysis_store.hpp"
#include "support/types.hpp"

namespace pwcet {

/// Selects one shard of an N-way campaign partition (engine/shard.hpp).
/// The default {0, 1} is the whole campaign. Indices are 0-based here;
/// the CLI spelling "--shard i/N" is 1-based.
struct ShardSelector {
  std::size_t index = 0;
  std::size_t count = 1;

  friend bool operator==(const ShardSelector&, const ShardSelector&) =
      default;
};

struct RunnerOptions {
  /// Worker threads; 0 = one per hardware thread.
  std::size_t threads = 0;
  /// Content-addressed store configuration (store/analysis_store.hpp).
  /// Enabled by default: grid jobs sharing sub-problems (same per-set
  /// penalty rows across sets, mechanisms and tasks) reuse each other's
  /// results, byte-identically. An empty artifact_dir falls back to
  /// cache_dir_from_env() before the store is constructed.
  StoreOptions store;
  /// Reuse a caller-owned store instead of constructing one from `store`:
  /// a re-run of an identical spec is then answered whole from its memo
  /// (load_campaign). This is how warm re-runs are measured (the
  /// `campaign.*.warm` bench scenarios, benchlib/scenarios.cpp).
  AnalysisStore* shared_store = nullptr;
  /// Which shard of the campaign to execute. {0, 1} (the default) runs
  /// everything. A proper shard runs only the analyzer groups its
  /// contiguous schedule-order range owns (engine/shard.hpp's partition
  /// rule), leaves every other result slot untouched, and skips
  /// save_campaign (its results are incomplete by design); per-sub-problem
  /// memo entries and disk artifacts are still shared, and
  /// `on_job_finished` fires only for owned jobs. Results for the owned
  /// slots are byte-identical to a whole-campaign run — jobs carry
  /// key-derived seeds and groups are self-contained, so a group computes
  /// the same bytes wherever it runs.
  ShardSelector shard;
  /// Observability hook: invoked once per completed job, from whichever
  /// thread finished it (the callee must be thread-safe). On the warm
  /// whole-campaign path it fires once per job after the load, so a
  /// progress consumer always reaches jobs/jobs. Must not throw; results
  /// are not exposed — the hook cannot influence the campaign (the
  /// determinism contract above stays intact).
  std::function<void()> on_job_finished;
};

/// Outcome of one campaign job. Which fields are meaningful depends on the
/// job's AnalysisKind; unused fields stay 0 (and `curve` stays empty
/// unless the spec requests a distribution output).
struct JobResult {
  CampaignJob job;
  Cycles fault_free_wcet = 0;   ///< SPTA only
  double pwcet = 0.0;           ///< estimate at spec.target_exceedance
  double observed_max = 0.0;    ///< MBPTA / simulation only
  double penalty_mean = 0.0;    ///< SPTA: mean fault-induced penalty
  std::size_t penalty_points = 0;  ///< SPTA: support size kept

  // Slack (kind kSlack) fields: static-vs-simulated miss bounds on the
  // worst structural path, in the all-sets-faulty regime and with only
  // set 0 degraded (the E5 ablation, specs/srb_conservatism.json).
  std::uint64_t fetches = 0;        ///< simulated fetches (all-faulty run)
  std::uint64_t srb_hits = 0;       ///< SRB hits (spatial locality credit)
  std::uint64_t sim_misses = 0;     ///< simulated misses, all sets faulty
  std::uint64_t bound_misses = 0;   ///< static miss bound, all sets faulty
  std::uint64_t sim_misses_1 = 0;   ///< simulated set-0 misses, set 0 faulty
  std::uint64_t bound_misses_1 = 0;  ///< static set-0 bound, set 0 faulty

  /// Distribution sink: the job's pWCET-curve value at each
  /// spec.ccdf_exceedances entry (same order). Empty when the spec
  /// requests no distribution output; all-zero for slack jobs.
  std::vector<double> curve;
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<JobResult> results;  ///< expansion order (spec grid order)
  std::size_t threads_used = 0;
  double wall_seconds = 0.0;  ///< timing only; never rendered into reports
  /// Store counters attributable to this run (delta for a shared store);
  /// observability only — like wall_seconds, never rendered into reports.
  StoreStats store_stats;

  const JobResult& at(std::size_t task_i, std::size_t geometry_i,
                      std::size_t pfail_i, std::size_t mechanism_i,
                      std::size_t engine_i = 0, std::size_t kind_i = 0,
                      std::size_t dcache_i = 0, std::size_t dmech_i = 0,
                      std::size_t samples_i = 0, std::size_t tlb_i = 0,
                      std::size_t l2_i = 0) const {
    return results[campaign_job_index(spec, task_i, geometry_i, pfail_i,
                                      mechanism_i, engine_i, kind_i,
                                      dcache_i, dmech_i, samples_i, tlb_i,
                                      l2_i)];
  }
};

/// The whole campaign is the store's unit of reuse across runs, under
/// `spec_key` = campaign_spec_key(spec): the memo's "campaign" layer holds
/// the results vector (in-process re-runs), and the disk tier holds the
/// campaign-report artifact plus, for a spec with a distribution sink,
/// campaign-dist — JSONL reports whose parse renders byte-identically
/// (re-runs in any process sharing the cache directory).
///
/// load_campaign looks in the memo first, then on disk, and fills
/// `campaign.results` (pre-sized to `jobs`, expansion order) for
/// `campaign.spec`; false when neither tier holds a complete entry.
/// Stale-cache safety: artifacts carry ArtifactStore::kFormatVersion, and
/// workload content is hashed into the spec key.
bool load_campaign(AnalysisStore& store, const StoreKey& spec_key,
                   const std::vector<CampaignJob>& jobs,
                   CampaignResult& campaign);

/// Saves a complete campaign to every tier the store has.
void save_campaign(AnalysisStore& store, const StoreKey& spec_key,
                   const CampaignResult& campaign);

/// Expands and executes the campaign. Exceptions thrown by jobs are
/// rethrown (first in expansion order) after all jobs finished.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const RunnerOptions& options = {});

}  // namespace pwcet
