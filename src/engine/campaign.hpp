/// \file
/// Declarative description of a pWCET scenario sweep.
///
/// Every figure and table of the paper is a cartesian sweep over a few axes:
/// task x cache geometry x cell failure probability x reliability mechanism
/// x WCET engine x analysis kind — plus, for the extension artifacts, a
/// data-cache configuration, a data-cache mechanism pairing and a sample
/// count. A CampaignSpec names the axis values once; expand_campaign()
/// unrolls them into a flat, deterministically ordered list of independent
/// jobs that the runner (engine/runner.hpp) executes on a thread pool.
///
/// Each job carries a seed derived from its *key* (the axis values, chained
/// through Rng::derive_seed), not from shared generator state or from its
/// position in the grid — so stochastic jobs (MBPTA, simulation) are
/// reproducible under any thread count and their seeds survive adding or
/// reordering axis values elsewhere in the spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_config.hpp"
#include "fault/fault_model.hpp"
#include "mbpta/mbpta.hpp"
#include "store/key.hpp"
#include "support/types.hpp"
#include "wcet/fmm.hpp"

namespace pwcet {

/// What to compute for one grid cell.
enum class AnalysisKind : std::uint8_t {
  kSpta,        ///< static pWCET analysis (the paper's pipeline)
  kMbpta,       ///< measurement-based EVT estimate over a chip population
  kSimulation,  ///< Monte-Carlo fault injection on the heavy path
  kSlack,       ///< static-vs-simulated miss-bound conservatism (E5)
};

/// Short name ("spta" / "mbpta" / "sim" / "slack"); resolved through the
/// axis-name registry (engine/names.hpp).
std::string analysis_kind_name(AnalysisKind kind);

/// Short engine name ("ilp" / "tree"); registry-resolved.
std::string engine_name(WcetEngine engine);

/// Mechanism deployed on the data cache of a combined I+D cell. `kSame`
/// mirrors the job's instruction-cache mechanism — the uniform deployments
/// of the E8 table; the explicit values express mixed deployments such as
/// RW on the I-cache with SRB on the D-cache. Ignored (and reported as
/// "-") when the cell's data cache is off.
enum class DcacheMechanism : std::uint8_t {
  kSame,
  kNone,
  kReliableWay,
  kSharedReliableBuffer,
};

/// Short name ("same" / "none" / "RW" / "SRB"); registry-resolved.
std::string dcache_mechanism_name(DcacheMechanism m);

/// Data-cache write policy. Write-through (the default, and the only
/// policy of earlier releases) keeps stores out of the analyzed stream;
/// write-back allocates stores and prices dirty evictions
/// (analysis/writeback_dcache_domain.hpp).
enum class WritePolicy : std::uint8_t { kWriteThrough, kWriteBack };

/// Short name ("write_through" / "write_back"); registry-resolved.
std::string write_policy_name(WritePolicy policy);

/// One value of the data-cache axis: disabled (instruction-cache-only
/// analysis, the default) or a data-cache geometry analyzed alongside the
/// instruction cache (paper §VI future work, analysis/dcache_domain.hpp).
struct DcacheAxis {
  bool enabled = false;
  CacheConfig geometry{};
  WritePolicy policy = WritePolicy::kWriteThrough;
  Cycles writeback_penalty = 0;  ///< extra cycles per dirty eviction

  friend bool operator==(const DcacheAxis&, const DcacheAxis&) = default;
};

/// One value of the TLB axis: disabled (the default) or a TLB geometry —
/// entries/ways/page size — analyzed as a page-granular cache domain
/// (analysis/tlb_domain.hpp) alongside the instruction cache.
struct TlbAxis {
  bool enabled = false;
  std::uint32_t entries = 32;    ///< total translation entries
  std::uint32_t ways = 2;        ///< associativity (entries % ways == 0)
  std::uint32_t page_bytes = 64; ///< page size
  Cycles miss_penalty = 30;      ///< page-walk cost per TLB miss

  /// The TLB expressed as a cache geometry: page-sized lines, entries /
  /// ways sets. Hit latency is 0 — translation hits are folded into the
  /// fetch latency the primary domain charges.
  CacheConfig geometry() const {
    return CacheConfig{entries / ways, ways, page_bytes, 0, miss_penalty};
  }

  friend bool operator==(const TlbAxis&, const TlbAxis&) = default;
};

/// One value of the shared-L2 axis: disabled (the default) or an L2
/// geometry analyzed as a lookup-through unified second level
/// (analysis/l2_domain.hpp) alongside the L1 domains.
struct L2Axis {
  bool enabled = false;
  CacheConfig geometry{};

  friend bool operator==(const L2Axis&, const L2Axis&) = default;
};

/// Largest cache a campaign accepts, for geometries, dcaches, l2s and
/// TLBs (entries = sets x ways). Analysis time grows with the line count
/// and the associativity: a 2^31 x 1 or 16 x 4096 cache runs for minutes.
/// The shipped specs stay at 64 x 4 and below.
inline constexpr std::uint32_t kMaxGeometryWays = 256;
inline constexpr std::uint64_t kMaxGeometryLines = 65536;

/// Largest chip population a campaign accepts (`simulation_chips`,
/// `mbpta.chips`, every `sample_counts` entry). MBPTA and simulation jobs
/// simulate every chip and keep one time per chip; the defaults are 400
/// (MBPTA) and 1,000 (simulation) chips.
inline constexpr std::size_t kMaxPopulation = std::size_t{1} << 20;

/// The first rule a CampaignSpec breaks: the offending field as a spec-file
/// path ("geometries[0].sets", "tlbs[1].entries", "mbpta.chips",
/// "sample_counts[1]", "dcaches" for a rule on a whole axis) and the
/// diagnostic the spec reader prints for it.
struct SpecViolation {
  std::string path;
  std::string message;
};

/// One axis-per-member cartesian sweep. Empty axes are rejected by
/// validate(); `engines`, `kinds`, `dcaches`, `tlbs`, `l2s`,
/// `dcache_mechanisms` and `sample_counts` default to the common case
/// (one-entry axes that leave the job count unchanged).
struct CampaignSpec {
  std::vector<std::string> tasks;        ///< workload names
  std::vector<CacheConfig> geometries;   ///< (instruction-)cache configs
  std::vector<Probability> pfails;       ///< cell failure probabilities
  std::vector<Mechanism> mechanisms;     ///< none / RW / SRB
  std::vector<WcetEngine> engines{WcetEngine::kIlp};
  std::vector<AnalysisKind> kinds{AnalysisKind::kSpta};
  /// Data-cache axis; the default single "off" entry keeps icache-only
  /// campaigns unchanged. Enabled entries are only valid for SPTA cells.
  std::vector<DcacheAxis> dcaches{DcacheAxis{}};
  /// TLB axis; same default rule. Enabled entries are SPTA-only and use
  /// the job's instruction-cache mechanism (no separate pairing axis).
  std::vector<TlbAxis> tlbs{TlbAxis{}};
  /// Shared-L2 axis; same default and mechanism rule as `tlbs`.
  std::vector<L2Axis> l2s{L2Axis{}};
  /// Data-cache mechanism pairing, crossed with `mechanisms`.
  std::vector<DcacheMechanism> dcache_mechanisms{DcacheMechanism::kSame};
  /// MBPTA / simulation population sizes; 0 = the spec-level defaults
  /// (mbpta.chips, simulation_chips). Ignored by SPTA / slack cells.
  std::vector<std::size_t> sample_counts{0};

  Probability target_exceedance = 1e-15;  ///< pWCET quantile reported
  /// Exceedance probabilities at which every job also records its full
  /// pWCET curve (the distribution sink, engine/report.hpp). Empty =
  /// scalar-only campaign (the default).
  std::vector<Probability> ccdf_exceedances;
  std::size_t max_distribution_points = 2048;
  MbptaOptions mbpta{};             ///< population size etc. for kMbpta
  std::size_t simulation_chips = 1000;  ///< population size for kSimulation
  std::uint64_t base_seed = 0x5eed;

  std::size_t job_count() const {
    return tasks.size() * geometries.size() * pfails.size() *
           mechanisms.size() * engines.size() * kinds.size() *
           dcaches.size() * tlbs.size() * l2s.size() *
           dcache_mechanisms.size() * sample_counts.size();
  }

  /// The first rule the spec breaks, or nullopt when it can run. This is
  /// the only copy of the value rules: spec files reach it through the
  /// reader (engine/spec_io.hpp), programmatic specs through
  /// expand_campaign. Rules are checked in a fixed order: every axis is
  /// non-empty; the axis entries in member order (known task names,
  /// geometry and TLB sizes, probabilities); the scalars (exceedances,
  /// coalescing cap, positive populations); the cross-field rules (MBPTA
  /// block bounds and exceedances below 1, SPTA-only data cache / TLB /
  /// L2, slack mechanisms); and the kMaxPopulation bound last. Never
  /// aborts; messages are built only for the failing rule.
  [[nodiscard]] std::optional<SpecViolation> validate() const;
};

/// One cell of the expanded grid: resolved axis values plus the axis
/// indices (for pivoting results back into tables) and the derived seed.
struct CampaignJob {
  std::size_t index = 0;  ///< position in expansion order

  std::size_t task_i = 0, geometry_i = 0, pfail_i = 0;
  std::size_t mechanism_i = 0, engine_i = 0, kind_i = 0;
  std::size_t dcache_i = 0, tlb_i = 0, l2_i = 0, dmech_i = 0, samples_i = 0;

  std::string task;
  CacheConfig geometry;
  Probability pfail = 0.0;
  Mechanism mechanism = Mechanism::kNone;
  WcetEngine engine = WcetEngine::kIlp;
  AnalysisKind kind = AnalysisKind::kSpta;
  DcacheAxis dcache{};
  TlbAxis tlb{};
  L2Axis l2{};
  DcacheMechanism dmech = DcacheMechanism::kSame;
  std::size_t samples = 0;  ///< 0 = spec-level population defaults

  std::uint64_t seed = 0;  ///< per-job RNG seed, derived from the key

  /// Data-cache mechanism with `kSame` resolved against `mechanism`.
  /// Meaningful only when `dcache.enabled`.
  Mechanism resolved_dmech() const;

  /// Stable human-readable id, e.g. "adpcm/16x4x16B/1.0e-04/SRB/ilp/spta".
  /// Non-default extension axes append suffixes ("/D8x4x16B/SRB" for an
  /// enabled data cache — "-wbN" marks a write-back policy with penalty N
  /// — "/T32e2w64B" for a TLB, "/L32x4x32B" for a shared L2, "/n400" for
  /// an explicit sample count), so ids of icache-only cells are unchanged
  /// from earlier releases.
  std::string id() const;
};

/// Seed for one job key (exposed so tests can pin the derivation).
std::uint64_t campaign_job_seed(const CampaignSpec& spec,
                                const CampaignJob& job);

/// Unrolls the sweep in fixed row-major order: tasks outermost, then
/// geometries, pfails, mechanisms, engines, kinds, dcaches, tlbs, l2s,
/// dcache_mechanisms, sample_counts innermost. Aborts, naming the field
/// and the rule, on a spec that validate() rejects.
std::vector<CampaignJob> expand_campaign(const CampaignSpec& spec);

/// Index of a cell in expansion order (inverse of the job's axis indices).
/// `tlb_i` / `l2_i` sit between dcache_i and dmech_i in expansion order
/// but trail here so call sites predating those axes stay valid.
std::size_t campaign_job_index(const CampaignSpec& spec, std::size_t task_i,
                               std::size_t geometry_i, std::size_t pfail_i,
                               std::size_t mechanism_i,
                               std::size_t engine_i = 0,
                               std::size_t kind_i = 0,
                               std::size_t dcache_i = 0,
                               std::size_t dmech_i = 0,
                               std::size_t samples_i = 0,
                               std::size_t tlb_i = 0,
                               std::size_t l2_i = 0);

/// Shared store-key prefix of a job's analyzer group: the (task, geometry,
/// engine, dcache) values that determine which memoized sub-results (FMM
/// rows, domain penalties and fold prefixes) the job can reuse. Derived from
/// the axis *values* (task name, geometry fields), not indices, so
/// duplicated or reordered axis entries land on the same key. The runner submits groups
/// ordered by this prefix (cache-aware ordering): groups about to touch
/// the same memo entries run back to back, maximizing hit locality under a
/// bounded LRU. Results are unaffected — collection is slot-indexed.
StoreKey campaign_group_key(const CampaignJob& job);

/// Content key of a whole spec: the key of the store's whole-campaign
/// entry (engine/runner.hpp's load_campaign / save_campaign) — the
/// memo's "campaign" results and the disk tier's campaign-report and
/// campaign-dist artifacts.
StoreKey campaign_spec_key(const CampaignSpec& spec);

}  // namespace pwcet
