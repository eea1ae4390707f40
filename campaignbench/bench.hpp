/// \file
/// Shared declarations of the campaignbench program: the generated
/// workload specs and their output checks (workloads.cpp) and the traced
/// layer walk (layers.cpp). main.cpp runs them; README.md documents the
/// workloads and every metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/runner.hpp"
#include "store/memo_cache.hpp"

namespace campaignbench {

/// Seed at which every workload's whole report must match its reference
/// digest. Equal to CampaignSpec's own default base_seed.
inline constexpr std::uint64_t kDefaultSeed = 0x5eed;

/// Names of the workloads, in the order BENCHMARK.json lists them.
std::vector<std::string> workload_names();

/// The campaign a workload runs; `seed` becomes `base_seed`.
/// \throws std::invalid_argument for an unknown workload name.
pwcet::CampaignSpec make_spec(const std::string& workload,
                              std::uint64_t seed);

/// Result of the output checks on one campaign.
struct CheckOutcome {
  std::size_t failed_jobs = 0;
  std::vector<std::string> problems;  ///< human-readable, at most a few
};

/// Output checks of one finished campaign (README.md, "Output checks"):
/// SPTA rows carry pwcet >= wcet_ff; on chip_population each SPTA pwcet
/// bounds the mbpta and sim observed_max of its (task, mechanism, pfail)
/// cell; the seed-independent SPTA digest matches at every seed and the
/// whole-report digest at kDefaultSeed.
CheckOutcome check_campaign(const std::string& workload, std::uint64_t seed,
                            const pwcet::CampaignResult& campaign);

/// FNV-1a digests of the rendered report: the whole CSV, and the SPTA
/// rows without their seed column (SPTA results do not depend on it).
std::uint64_t report_digest(const pwcet::CampaignResult& campaign);
std::uint64_t spta_digest(const pwcet::CampaignResult& campaign);

/// Per-layer totals of one serial traced walk over a campaign's groups
/// (layers.cpp). Times are seconds summed over calls.
struct LayerWalk {
  double build_s = 0;            ///< workloads::build, once per group
  double core_s = 0;             ///< PwcetPipeline construction
  double extract_s = 0;          ///< phase.extract inside core
  double classify_s = 0;         ///< phase.classify inside core
  double tree_maximize_s = 0;    ///< phase.maximize of tree-engine groups
  double ilp_maximize_s = 0;     ///< phase.maximize of ILP-engine groups
  double fmm_s = 0;              ///< phase.fmm inside core
  double analyze_s = 0;          ///< PwcetPipeline::analyze
  double penalty_s = 0;          ///< phase.penalty inside analyze
  double convolve_s = 0;         ///< phase.convolve inside penalty
  double trace_s = 0;            ///< heavy_walk + fetch_trace
  double sample_s = 0;           ///< FaultMap::sample
  double simulate_s = 0;         ///< simulate_trace
  double fit_s = 0;              ///< block_maxima + fit_gumbel_mle
  double walk_cpu_s = 0;         ///< process CPU time of the whole walk
  std::uint64_t fmm_rows = 0;
  std::uint64_t fmm_distinct_rows = 0;
  std::uint64_t support_points = 0;
  std::uint64_t fault_maps = 0;
  std::uint64_t fetches = 0;
  pwcet::StoreStats store;       ///< memo counters of the walk's store
  std::size_t mismatched_jobs = 0;  ///< rows differing from the campaign
};

/// Re-executes `reference`'s campaign serially, group by group in the
/// runner's schedule, calling each layer's public functions under a timer
/// and reading the pipeline's phase histograms from the metrics registry.
/// Every job's outputs are compared with the campaign's row.
LayerWalk walk_layers(const pwcet::CampaignResult& reference);

/// Process CPU time (user + sys, all threads) in seconds.
double process_cpu_seconds();

}  // namespace campaignbench
