/// \file
/// Distributed campaign sharding: deterministic partition of a campaign
/// across N independent processes, the versioned per-shard fragment
/// artifact each shard writes into its cache directory, and the merge
/// that reassembles the byte-identical single-process report.
///
/// Partition rule. The unit of distribution is the *analyzer group* — the
/// runner's (task, geometry, engine, dcache, tlb, l2) job grouping — taken
/// in the runner's schedule order (cache-aware group order, members in
/// expansion order; see campaign_group_schedule). Shard i of N owns the
/// contiguous group range [floor(i*G/N), floor((i+1)*G/N)). Distributing
/// whole groups in schedule order preserves everything the single-process
/// runner optimizes: analyzer, FMM-bundle and penalty-scaffold reuse
/// inside a group, memo locality between adjacent groups — and per-job
/// seeds are key-derived, so results are unaffected by where a job runs. The schedule is a pure function of the expanded
/// spec: shard assignment is spec-key-stable (the same spec content
/// partitions identically on every host, under any file name).
///
/// Fragment artifact. A shard run writes one "campaign-shard" artifact
/// (schema pwcet-shard-fragment-v1) into its cache directory: a meta line
/// naming the spec key, shard index/count and covered report slots,
/// followed by the covered scalar report rows and distribution rows in
/// slot order. The artifact travels through
/// ArtifactStore, so its header carries a payload content hash — a
/// corrupted fragment is detected at merge time, not silently merged.
///
/// Merge. merge_campaign_shards scans the fragment sets of N cache
/// directories, demands an exact partition of the campaign's job slots
/// (missing shard, duplicate shard, spec-key mismatch, slot overlap are
/// hard, named ShardMergeErrors), reconstructs every JobResult from the
/// fragment rows (round-tripping formats make the re-render byte-identical
/// to the single-process report), and optionally unions the shards' store
/// directories (store/merge.hpp; same-key-different-bytes is a hard
/// collision error) — finishing by saving the merged campaign into the
/// union (save_campaign) so future runs warm-load from it.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/runner.hpp"

namespace pwcet {

/// Upper bound on --shard N, far beyond any real fleet; guards the
/// partition arithmetic against unparsed garbage.
inline constexpr std::size_t kMaxShardCount = 65536;

/// Parses the CLI spelling "i/N" (1-based i, 1 <= i <= N <= kMaxShardCount)
/// into the 0-based selector; false on any other input.
bool parse_shard_selector(const std::string& text, ShardSelector& shard);

/// The runner's group schedule: jobs grouped by analyzer compatibility
/// (task, geometry, engine, dcache, tlb, l2), groups in cache-aware order
/// (sorted by campaign_group_key, axis order breaking ties), members in
/// expansion order. Extracted from run_campaign so the runner and the
/// shard partitioner can never drift: both call this.
std::vector<std::vector<std::size_t>> campaign_group_schedule(
    const std::vector<CampaignJob>& jobs);

/// Contiguous group range [first, last) of schedule order owned by a
/// shard. Groups of a campaign all hold the same number of jobs (the
/// non-group axes are fully crossed), so the contiguous split is balanced
/// to within one group. Empty when the shard index is beyond the group
/// count (more shards than groups is valid; the surplus shards simply run
/// nothing).
std::pair<std::size_t, std::size_t> shard_group_range(
    std::size_t group_count, const ShardSelector& shard);

/// Expansion-order job indices owned by a shard, sorted ascending — the
/// fragment's covered report slots.
std::vector<std::size_t> shard_job_slots(
    const std::vector<std::vector<std::size_t>>& schedule,
    const ShardSelector& shard);

/// Shard index of every job (indexed by expansion order) under an N-way
/// partition — the `describe --shards N` column.
std::vector<std::size_t> shard_assignment(
    const std::vector<std::vector<std::size_t>>& schedule,
    std::size_t job_count, std::size_t shard_count);

/// Artifact kind under which fragments are stored
/// (`<cache-dir>/campaign-shard/<key>.jsonl`).
inline constexpr const char* kShardFragmentKind = "campaign-shard";

/// Schema tag of the fragment meta line; bump alongside any change to the
/// fragment payload layout.
inline constexpr const char* kShardFragmentSchema =
    "pwcet-shard-fragment-v1";

/// Content key of one fragment: the spec key chained with the shard
/// index/count, so the fragments of different shard counts (or different
/// specs) sharing a cache directory never collide.
StoreKey shard_fragment_key(const StoreKey& spec_key, std::size_t index,
                            std::size_t count);

/// One shard's contribution to a campaign, as carried by the fragment
/// artifact.
struct ShardFragment {
  std::size_t index = 0;  ///< 0-based shard index
  std::size_t count = 1;  ///< total shards of the partition
  std::string spec_key;   ///< campaign_spec_key(spec).hex()
  std::size_t job_count = 0;     ///< total jobs of the whole campaign
  std::size_t curve_points = 0;  ///< spec.ccdf_exceedances.size()
  std::vector<std::size_t> slots;  ///< covered job indices, ascending
  std::string report_rows;  ///< scalar JSONL rows, one per slot, in order
  std::string dist_rows;    ///< dist JSONL rows, curve_points per slot
};

/// Renders the fragment payload (meta line + rows).
std::string render_shard_fragment(const ShardFragment& fragment);

/// Parses a fragment payload; on failure returns false with a diagnostic
/// in `error`. Validates the schema tag, the meta line's JSON field types
/// (counts are non-negative integers), index/count sanity, and that the
/// row counts match the covered slots.
bool parse_shard_fragment(const std::string& payload, ShardFragment& fragment,
                          std::string& error);

/// Outcome of run_campaign_shard: the (sparse) campaign result plus what
/// the fragment recorded.
struct ShardRunOutcome {
  /// Full-size result vector; only the owned `slots` carry results. Render
  /// reports through the owned slots only.
  CampaignResult campaign;
  std::vector<std::size_t> slots;  ///< owned job indices, ascending
  ShardSelector shard;
};

/// Runs one shard of the campaign and writes its fragment artifact into
/// `cache_dir` (which shards may share — fragment keys differ, artifact
/// writes are atomic, and a crash-orphan sweep runs first). The fragment
/// is written through its own ArtifactStore, independent of
/// options.store: `--store off` shard runs still produce a mergeable
/// fragment. Throws on fragment-write failure (an unmergeable shard run
/// is a failed run, not a degraded one).
ShardRunOutcome run_campaign_shard(const CampaignSpec& spec,
                                   const ShardSelector& shard,
                                   const RunnerOptions& options,
                                   const std::string& cache_dir);

/// The shard run as a self-contained CampaignResult whose results vector
/// holds only the owned slots (expansion order preserved) — lets every
/// existing report renderer (engine/report.hpp) emit the shard's partial
/// report unchanged.
CampaignResult shard_view(const ShardRunOutcome& outcome);

/// A merge that cannot produce the single-process-identical report:
/// missing/duplicate/corrupt fragments, spec-key mismatch, shard-count
/// ambiguity, slot overlap, or a store collision. The message names the
/// offending shard/key and file(s).
class ShardMergeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ShardMergeOptions {
  /// Per-shard cache directories to scan for fragments (and to union).
  std::vector<std::string> from_dirs;
  /// Destination store directory; empty = report-only merge (no union).
  std::string into_dir;
  /// Expected shard count; 0 = infer from the fragments (an error if the
  /// directories carry fragments of several partitions).
  std::size_t shard_count = 0;
};

struct ShardMergeOutcome {
  CampaignResult campaign;    ///< reassembled full campaign result
  std::size_t shard_count = 0;  ///< the partition that was merged
  std::size_t artifacts_copied = 0;  ///< store union: newly copied files
  std::size_t artifacts_identical = 0;  ///< union: already present, equal
};

/// Merges the fragments of one campaign back into the single-process
/// result (byte-identical on re-render) and, when `into_dir` is set,
/// unions the shards' artifact stores into it. Throws ShardMergeError with
/// a named diagnostic on any inconsistency.
ShardMergeOutcome merge_campaign_shards(const CampaignSpec& spec,
                                        const ShardMergeOptions& options);

}  // namespace pwcet
