// Traced layer walk of the campaign benchmark.
//
// Re-executes a campaign on the calling thread, group by group in the
// runner's own schedule (campaign_group_schedule), with one fresh
// in-memory store — the work and memo traffic of a serial campaign. Every
// call into a layer's public function is timed here; the phases inside
// PwcetPipeline (extract, classify, maximize, fmm, penalty, convolve) are
// read from the metrics registry those functions already feed. No span is
// added to the library. Each job's outputs are compared with the row the
// measured campaign produced, so the walk provably did the same work.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/l2_domain.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/tlb_domain.hpp"
#include "analysis/writeback_dcache_domain.hpp"
#include "bench.hpp"
#include "engine/shard.hpp"
#include "fault/fault_map.hpp"
#include "mbpta/evt.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "store/analysis_store.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "workloads/malardalen.hpp"

namespace campaignbench {
namespace {

using namespace pwcet;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Summed duration of one registry histogram, in seconds.
double phase_seconds(const char* name) {
  return static_cast<double>(
             obs::MetricsRegistry::instance().histogram(name).snapshot().sum_ns) /
         1e9;
}

/// The domain list the runner composes for an SPTA cell: icache, then the
/// data cache, the TLB and the shared L2 when enabled. The runner keeps its
/// copy private; should the two drift, every job of the walk mismatches its
/// campaign row and the run fails.
std::vector<std::shared_ptr<const CacheDomain>> domains_of(
    const CampaignJob& job) {
  std::vector<std::shared_ptr<const CacheDomain>> domains;
  domains.push_back(std::make_shared<IcacheDomain>(job.geometry));
  if (job.dcache.enabled) {
    if (job.dcache.policy == WritePolicy::kWriteBack)
      domains.push_back(std::make_shared<WritebackDcacheDomain>(
          job.dcache.geometry, job.dcache.writeback_penalty));
    else
      domains.push_back(std::make_shared<DcacheDomain>(job.dcache.geometry));
  }
  if (job.tlb.enabled)
    domains.push_back(std::make_shared<TlbDomain>(job.tlb.geometry()));
  if (job.l2.enabled)
    domains.push_back(std::make_shared<L2Domain>(job.l2.geometry));
  return domains;
}

/// Per-domain mechanisms of an SPTA cell, in domain order: the data cache
/// takes its resolved pairing, the TLB and L2 the icache mechanism.
std::vector<Mechanism> mechanisms_of(const CampaignJob& job) {
  std::vector<Mechanism> mechanisms{job.mechanism};
  if (job.dcache.enabled) mechanisms.push_back(job.resolved_dmech());
  if (job.tlb.enabled) mechanisms.push_back(job.mechanism);
  if (job.l2.enabled) mechanisms.push_back(job.mechanism);
  return mechanisms;
}

void count_fmm_rows(const PwcetPipeline& pipeline, LayerWalk& walk) {
  for (std::size_t d = 0; d < pipeline.domain_count(); ++d) {
    const FmmBundle& bundle = pipeline.fmm(d);
    for (const FaultMissMap* fmm : {&bundle.none, &bundle.rw, &bundle.srb}) {
      walk.fmm_rows += fmm->misses.size();
      walk.fmm_distinct_rows +=
          std::set<std::vector<double>>(fmm->misses.begin(),
                                        fmm->misses.end())
              .size();
    }
  }
}

/// One chip population on the heavy path, as the runner's simulation and
/// MBPTA jobs run it; returns the per-chip cycle counts.
std::vector<double> simulate_population(const Program& program,
                                        const CampaignJob& job,
                                        std::size_t chips,
                                        std::uint64_t seed,
                                        LayerWalk& walk) {
  const Probability pbf =
      FaultModel(job.pfail).block_failure_probability(job.geometry);
  auto start = Clock::now();
  const std::vector<Address> trace =
      fetch_trace(program.cfg(), heavy_walk(program));
  walk.trace_s += seconds_since(start);

  Rng rng(seed);
  std::vector<double> times;
  times.reserve(chips);
  for (std::size_t chip = 0; chip < chips; ++chip) {
    start = Clock::now();
    const FaultMap map = FaultMap::sample(job.geometry, pbf, rng);
    walk.sample_s += seconds_since(start);
    start = Clock::now();
    const SimStats stats =
        simulate_trace(job.geometry, map, job.mechanism, trace);
    walk.simulate_s += seconds_since(start);
    walk.fetches += stats.fetches;
    times.push_back(static_cast<double>(stats.cycles));
  }
  walk.fault_maps += chips;
  return times;
}

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

LayerWalk walk_layers(const CampaignResult& reference) {
  const CampaignSpec& spec = reference.spec;
  const std::vector<CampaignJob> jobs = expand_campaign(spec);
  if (jobs.size() != reference.results.size())
    throw std::logic_error("walk_layers: result count differs from spec");

  LayerWalk walk;
  AnalysisStore store(StoreOptions{});
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.clear();
  registry.enable();
  const double cpu_before = process_cpu_seconds();

  for (const std::vector<std::size_t>& group :
       campaign_group_schedule(jobs)) {
    const CampaignJob& first = jobs[group.front()];
    auto start = Clock::now();
    const Program program = workloads::build(first.task);
    walk.build_s += seconds_since(start);

    std::optional<PwcetPipeline> pipeline;
    for (const std::size_t index : group) {
      const CampaignJob& job = jobs[index];
      const JobResult& expected = reference.results[index];
      bool same = true;
      switch (job.kind) {
        case AnalysisKind::kSpta: {
          if (!pipeline) {
            PwcetOptions options;
            options.engine = job.engine;
            options.max_distribution_points = spec.max_distribution_points;
            options.store = &store;
            const double maximize_before =
                phase_seconds(obs::phase_name::kMaximize);
            start = Clock::now();
            pipeline.emplace(program, domains_of(job), options);
            walk.core_s += seconds_since(start);
            const double maximize =
                phase_seconds(obs::phase_name::kMaximize) - maximize_before;
            (job.engine == WcetEngine::kIlp ? walk.ilp_maximize_s
                                            : walk.tree_maximize_s) +=
                maximize;
            count_fmm_rows(*pipeline, walk);
          }
          start = Clock::now();
          const PwcetResult result =
              pipeline->analyze(FaultModel(job.pfail), mechanisms_of(job));
          walk.analyze_s += seconds_since(start);
          walk.support_points += result.penalty.size();
          same = pipeline->fault_free_wcet() == expected.fault_free_wcet &&
                 static_cast<double>(result.pwcet(spec.target_exceedance)) ==
                     expected.pwcet &&
                 result.penalty.size() == expected.penalty_points;
          break;
        }
        case AnalysisKind::kMbpta: {
          MbptaOptions options = spec.mbpta;
          if (job.samples != 0) options.chips = job.samples;
          const std::vector<double> times = simulate_population(
              program, job, options.chips, job.seed, walk);
          start = Clock::now();
          const GumbelFit fit =
              fit_gumbel_mle(block_maxima(times, options.block_size));
          walk.fit_s += seconds_since(start);
          same = fit.quantile_exceedance(spec.target_exceedance) ==
                     expected.pwcet &&
                 *std::max_element(times.begin(), times.end()) ==
                     expected.observed_max;
          break;
        }
        case AnalysisKind::kSimulation: {
          const std::size_t chips =
              job.samples != 0 ? job.samples : spec.simulation_chips;
          const std::vector<double> times =
              simulate_population(program, job, chips, job.seed, walk);
          same = empirical_quantile(times, 1.0 - spec.target_exceedance) ==
                     expected.pwcet &&
                 *std::max_element(times.begin(), times.end()) ==
                     expected.observed_max;
          break;
        }
        case AnalysisKind::kSlack:
          throw std::invalid_argument(
              "walk_layers: slack jobs are not part of any workload");
      }
      if (!same) ++walk.mismatched_jobs;
    }
  }

  walk.walk_cpu_s = process_cpu_seconds() - cpu_before;
  walk.extract_s = phase_seconds(obs::phase_name::kExtract);
  walk.classify_s = phase_seconds(obs::phase_name::kClassify);
  walk.fmm_s = phase_seconds(obs::phase_name::kFmm);
  walk.penalty_s = phase_seconds(obs::phase_name::kPenalty);
  walk.convolve_s = phase_seconds(obs::phase_name::kConvolve);
  walk.store = store.stats();
  registry.disable();
  registry.clear();
  return walk;
}

}  // namespace campaignbench
