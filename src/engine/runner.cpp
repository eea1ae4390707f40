#include "engine/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/l2_domain.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/tlb_domain.hpp"
#include "analysis/writeback_dcache_domain.hpp"
#include "cache/references.hpp"
#include "engine/report.hpp"
#include "engine/shard.hpp"
#include "engine/thread_pool.hpp"
#include "fault/fault_map.hpp"
#include "icache/srb_analysis.hpp"
#include "mbpta/mbpta.hpp"
#include "obs/phase.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "sim/population.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "wcet/cost_model.hpp"
#include "wcet/tree_engine.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

/// Domain list of an SPTA cell, in composition order: icache, then the
/// data cache (write-through or write-back), then the TLB, then the shared
/// L2. The pipeline maps [icache] and [icache, dcache] onto the historical
/// "pwcet-core-v1" / "pwcet-dcore-v1" store-key recipes; every other shape
/// chains the domain names into "pwcet-ncore-v1", so the order must never
/// change once results are persisted.
std::vector<std::shared_ptr<const CacheDomain>> pipeline_domains(
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

JobResult run_spta(const CampaignJob& job, const PwcetPipeline& pipeline,
                   const CampaignSpec& spec) {
  std::vector<Mechanism> mechanisms;
  mechanisms.reserve(pipeline.domain_count());
  mechanisms.push_back(job.mechanism);
  if (job.dcache.enabled) mechanisms.push_back(job.resolved_dmech());
  // The TLB and L2 domains deploy the job's instruction-cache mechanism;
  // they have no pairing axis of their own.
  if (job.tlb.enabled) mechanisms.push_back(job.mechanism);
  if (job.l2.enabled) mechanisms.push_back(job.mechanism);
  const PwcetResult res = pipeline.analyze(FaultModel(job.pfail), mechanisms);

  JobResult r;
  r.job = job;
  r.fault_free_wcet = pipeline.fault_free_wcet();
  r.pwcet = static_cast<double>(res.pwcet(spec.target_exceedance));
  r.penalty_mean = res.penalty.mean();
  r.penalty_points = res.penalty.size();
  r.curve.reserve(spec.ccdf_exceedances.size());
  for (const Probability p : spec.ccdf_exceedances)
    r.curve.push_back(static_cast<double>(res.pwcet(p)));
  return r;
}

JobResult run_mbpta_job(const CampaignJob& job, const Program& program,
                        const CampaignSpec& spec) {
  JobResult r;
  r.job = job;
  MbptaOptions options = spec.mbpta;
  options.seed = job.seed;  // per-job stream, not the spec-wide default
  if (job.samples != 0) options.chips = job.samples;  // sample-count axis
  const MbptaResult res = run_mbpta(program, job.geometry,
                                    FaultModel(job.pfail), job.mechanism,
                                    options);
  r.pwcet = res.pwcet(spec.target_exceedance);
  r.observed_max = res.observed_max;
  r.curve.reserve(spec.ccdf_exceedances.size());
  for (const Probability p : spec.ccdf_exceedances)
    r.curve.push_back(res.pwcet(p));
  return r;
}

JobResult run_simulation_job(const CampaignJob& job, const Program& program,
                             const CampaignSpec& spec) {
  // Monte-Carlo fault injection: sample a chip population, run the heavy
  // structural path on each, report the empirical tail. No extrapolation:
  // at certification-grade targets the empirical quantile is the observed
  // maximum — the point of this kind is cross-validating the static bound.
  JobResult r;
  r.job = job;
  const std::vector<double> times = simulate_chip_population(
      program, job.geometry, FaultModel(job.pfail), job.mechanism,
      job.samples != 0 ? job.samples : spec.simulation_chips, job.seed);
  r.observed_max = *std::max_element(times.begin(), times.end());
  r.pwcet = empirical_quantile(times, 1.0 - spec.target_exceedance);
  r.curve.reserve(spec.ccdf_exceedances.size());
  for (const Probability p : spec.ccdf_exceedances)
    r.curve.push_back(empirical_quantile(times, 1.0 - p));
  return r;
}

/// The E5 conservatism oracle (the two regimes of
/// specs/srb_conservatism.json), generalized to the SRB-vs-RW pairing:
///
///  * SRB — with a fully faulty set every fetch goes through the SRB; the
///    static analysis bounds each executed reference by 1 miss unless it
///    is SRB-always-hit (then 0).
///  * RW — a degraded set keeps exactly the hardened way, so the static
///    side is the must-classification of the one-way cache (sound per set:
///    set-associative must analysis is per-set independent); an executed
///    reference costs at most 1 miss unless classified always-hit.
///
/// Regime A degrades every set; regime B only set 0 (references to healthy
/// sets then retain state the conservative assumption must discard — the
/// paper's a1 a2 b1 b2 a1 a2 situation, §III-B.2). The gap between the
/// static bound and the simulated misses on the worst structural path is
/// what a flow-sensitive analysis could reclaim. Fills the slack fields of
/// the returned result only.
JobResult compute_slack(const Program& program, const CacheConfig& config,
                        Mechanism mechanism) {
  const ReferenceMap refs = extract_references(program.cfg(), config);
  const AgeProfile profile(program.cfg(), refs, config);
  const CostModel time_model = build_time_cost_model(
      program.cfg(), refs, classify_fault_free(profile), config);
  const BlockPath path = tree_worst_path(program, time_model);

  SrbHitMap srb_always_hit;
  if (mechanism == Mechanism::kSharedReliableBuffer)
    srb_always_hit = analyze_srb(program.cfg(), refs);
  // Misses charged to one executed occurrence of reference i in blk; RW
  // reads the one-way cache's classification off the profile.
  auto charged = [&](BlockId blk, std::size_t i) -> std::uint64_t {
    if (mechanism == Mechanism::kSharedReliableBuffer)
      return srb_always_hit[size_t(blk)][i] ? 0 : 1;
    return profile.classification(blk, i, 1).chmc == Chmc::kAlwaysHit ? 0
                                                                       : 1;
  };

  JobResult out;

  // Regime A: every set fully faulty (RW's hardened way is masked by the
  // simulator, leaving one usable way per set).
  FaultMap all_faulty(config.sets, config.ways);
  for (SetIndex s = 0; s < config.sets; ++s)
    for (std::uint32_t w = 0; w < config.ways; ++w)
      all_faulty.set_faulty(s, w, true);
  CacheSimulator sim_all(config, all_faulty, mechanism);
  for (BlockId blk : path) {
    const auto& block_refs = refs[size_t(blk)];
    for (std::size_t i = 0; i < block_refs.size(); ++i) {
      const LineRef& r = block_refs[i];
      out.bound_misses += charged(blk, i);
      for (std::uint32_t k = 0; k < r.fetches; ++k)
        sim_all.fetch(r.line * config.line_bytes + 4 * k);
    }
  }
  out.fetches = sim_all.stats().fetches;
  out.srb_hits = sim_all.stats().srb_hits;
  out.sim_misses = sim_all.stats().misses;

  // Regime B: only set 0 degraded; the bound covers set-0 references.
  FaultMap one_set(config.sets, config.ways);
  for (std::uint32_t w = 0; w < config.ways; ++w)
    one_set.set_faulty(0, w, true);
  CacheSimulator sim_one(config, one_set, mechanism);
  for (BlockId blk : path) {
    const auto& block_refs = refs[size_t(blk)];
    for (std::size_t i = 0; i < block_refs.size(); ++i) {
      const LineRef& r = block_refs[i];
      if (r.set == 0) out.bound_misses_1 += charged(blk, i);
      for (std::uint32_t k = 0; k < r.fetches; ++k)
        sim_one.fetch(r.line * config.line_bytes + 4 * k);
    }
  }
  out.sim_misses_1 = sim_one.stats().misses_per_set[0];
  return out;
}

JobResult run_slack_job(const CampaignJob& job, const Program& program,
                        const CampaignSpec& spec) {
  JobResult r = compute_slack(program, job.geometry, job.mechanism);
  r.job = job;
  // Slack cells have no pWCET curve; keep the distribution sink total
  // (jobs x points) so renders and the warm-load parser stay aligned.
  r.curve.assign(spec.ccdf_exceedances.size(), 0.0);
  return r;
}

}  // namespace

/// Payload bytes of a campaign's memo entry (see memo_cache.hpp): the
/// results and their distribution-sink curves. Outside the unnamed
/// namespace so that MemoCache finds it by argument-dependent lookup.
static std::uint64_t payload_bytes(const std::vector<JobResult>& results) {
  std::uint64_t bytes = results.size() * sizeof(JobResult);
  for (const JobResult& result : results)
    bytes += result.curve.size() * sizeof(double);
  return bytes;
}

bool load_campaign(AnalysisStore& store, const StoreKey& spec_key,
                   const std::vector<CampaignJob>& jobs,
                   CampaignResult& campaign) {
  if (const std::shared_ptr<const void> hit =
          store.memo().get(spec_key, "campaign")) {
    campaign.results =
        *std::static_pointer_cast<const std::vector<JobResult>>(hit);
    return true;
  }
  const ArtifactStore* artifacts = store.artifacts();
  if (artifacts == nullptr) return false;
  std::vector<std::size_t> all_slots(jobs.size());
  std::iota(all_slots.begin(), all_slots.end(), 0);
  const std::optional<std::string> report =
      artifacts->load_text("campaign-report", spec_key);
  if (!report ||
      !parse_campaign_report_rows(*report, jobs, all_slots, campaign.results))
    return false;
  const std::size_t curve_points = campaign.spec.ccdf_exceedances.size();
  if (curve_points == 0) return true;
  const std::optional<std::string> dist =
      artifacts->load_text("campaign-dist", spec_key);
  return dist && parse_campaign_dist_rows(*dist, curve_points, all_slots,
                                          campaign.results);
}

void save_campaign(AnalysisStore& store, const StoreKey& spec_key,
                   const CampaignResult& campaign) {
  store.memo().put(
      spec_key,
      std::make_shared<const std::vector<JobResult>>(campaign.results),
      "campaign");
  const ArtifactStore* artifacts = store.artifacts();
  if (artifacts == nullptr) return;
  artifacts->store_text("campaign-report", spec_key, report_jsonl(campaign));
  if (!campaign.spec.ccdf_exceedances.empty())
    artifacts->store_text("campaign-dist", spec_key,
                          report_dist_jsonl(campaign));
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const RunnerOptions& options) {
  obs::ScopedPhase campaign_phase(obs::engine_name::kCampaign, "engine");
  const auto started = std::chrono::steady_clock::now();
  if (options.shard.count == 0 ||
      options.shard.count > kMaxShardCount ||
      options.shard.index >= options.shard.count)
    throw std::invalid_argument(
        "run_campaign: shard selector out of range (index " +
        std::to_string(options.shard.index) + ", count " +
        std::to_string(options.shard.count) + ")");
  const bool sharded = options.shard.count > 1;
  const std::vector<CampaignJob> jobs = expand_campaign(spec);

  // The group schedule is shared with the shard partitioner
  // (engine/shard.hpp) so the two can never drift; a shard executes the
  // contiguous schedule-order range the partition rule assigns it.
  const std::vector<std::vector<std::size_t>> schedule =
      campaign_group_schedule(jobs);
  const auto [shard_begin, shard_end] =
      shard_group_range(schedule.size(), options.shard);
  // The jobs this run owns: all of them, or the shard's groups. The
  // shards' counts sum to the whole campaign's.
  std::size_t owned_jobs = 0;
  for (std::size_t g = shard_begin; g < shard_end; ++g)
    owned_jobs += schedule[g].size();
  obs::MetricsRegistry::instance().add("engine.jobs", owned_jobs);

  // One store serves the whole campaign (callers can pass a longer-lived
  // one for warm reuse). Pool workers share it concurrently.
  std::unique_ptr<AnalysisStore> owned_store;
  AnalysisStore* store = options.shared_store;
  if (store == nullptr && options.store.enabled) {
    StoreOptions store_options = options.store;
    if (store_options.artifact_dir.empty())
      store_options.artifact_dir = cache_dir_from_env();
    owned_store = std::make_unique<AnalysisStore>(store_options);
    store = owned_store.get();
  }
  const StoreStats stats_before =
      store != nullptr ? store->stats() : StoreStats{};

  CampaignResult campaign;
  campaign.spec = spec;
  campaign.results.resize(jobs.size());
  campaign.threads_used = ThreadPool::resolve_thread_count(options.threads);

  // Whole-campaign load-or-compute, checked before the pool is spawned so
  // the warm path starts no threads: an identical spec already answered in
  // this store's memo, or by any process sharing its cache dir, is served
  // whole — consumers cannot tell (except by the wall clock). Hashing the
  // spec builds every workload once, so it is done only with a store.
  StoreKey spec_key;
  if (store != nullptr) {
    obs::ScopedPhase warm_phase(obs::engine_name::kWarmLoad, "engine");
    spec_key = campaign_spec_key(spec);
    if (load_campaign(*store, spec_key, jobs, campaign)) {
      campaign.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      campaign.store_stats = store->stats().since(stats_before);
      obs::MetricsRegistry::instance().add("engine.warm_loads");
      // Every job is answered at once; keep progress consumers honest. A
      // shard fires only for the jobs it owns — its progress total is the
      // owned count, and the surplus rows stay filled (harmless: the
      // fragment renders owned slots only).
      if (options.on_job_finished)
        for (std::size_t i = 0; i < owned_jobs; ++i)
          options.on_job_finished();
      return campaign;
    }
  }

  ThreadPool pool(options.threads);

  std::vector<std::future<void>> futures;
  futures.reserve(shard_end - shard_begin);
  const bool observing = obs::Tracer::instance().enabled() ||
                         obs::MetricsRegistry::instance().enabled();
  for (std::size_t g = shard_begin; g < shard_end; ++g) {
    const std::vector<std::size_t>& entry = schedule[g];
    // Submission timestamp, taken on the submitting thread. The group's
    // queue wait is the time it sat *runnable with an idle worker*: from
    // max(its own enqueue, the executing worker's previous group or job
    // finish) to its first instruction. Measuring from enqueue alone
    // counts the whole backlog ahead of a bulk-enqueued group as "wait" —
    // a 1.7s serial campaign reported a 10s median — when that time is
    // worked, not waited. With the clamp, serial waits sum to scheduler
    // overhead only, so sum(queue_wait) <= wall holds (pinned by obs_test).
    const std::uint64_t submitted_ns = observing ? obs::monotonic_ns() : 0;
    futures.push_back(pool.submit([&spec, &jobs, &campaign, &pool, &options,
                                   store, submitted_ns, observing,
                                   members = &entry] {
      // Monotonic finish time of the previous group or job task on this
      // worker thread; zero on a fresh thread. Stale values from an earlier
      // campaign in the same process are harmless — the clock is
      // monotonic, so max() discards anything before this submission.
      thread_local std::uint64_t worker_busy_until_ns = 0;
      obs::TraceSpan group_span(obs::engine_name::kGroup, "engine");
      if (observing) {
        const std::uint64_t runnable_ns =
            std::max(submitted_ns, worker_busy_until_ns);
        const std::uint64_t wait_ns = obs::monotonic_ns() - runnable_ns;
        obs::MetricsRegistry::instance().observe_ns("engine.queue_wait",
                                                    wait_ns);
        if (group_span.active()) {
          char args[96];
          std::snprintf(args, sizeof args,
                        "\"jobs\":%zu,\"queue_wait_us\":%.1f",
                        members->size(),
                        static_cast<double>(wait_ns) / 1e3);
          group_span.annotate(args);
        }
      }
      const Program program = workloads::build(jobs[members->front()].task);

      // The members share, read-only, the program and the pipeline of the
      // group's first SPTA cell; mechanism and pfail cells reuse its FMM
      // bundles. The group key fixes one domain composition per group, so
      // the first SPTA cell's domain list serves every SPTA cell. Both are
      // built here, before the members fan out and read them concurrently.
      std::optional<PwcetPipeline> pipeline;
      const auto first_spta =
          std::find_if(members->begin(), members->end(), [&](std::size_t i) {
            return jobs[i].kind == AnalysisKind::kSpta;
          });
      if (first_spta != members->end()) {
        const CampaignJob& spta = jobs[*first_spta];
        PwcetOptions popts;
        popts.engine = spta.engine;
        popts.max_distribution_points = spec.max_distribution_points;
        popts.pool = &pool;
        popts.store = store;
        pipeline.emplace(program, pipeline_domains(spta), popts);
      }

      // Each member is a task of its own on the campaign's pool, so idle
      // workers take jobs from whichever group still has some. Members
      // run in any order and on any worker; the results land in their
      // slots. map_indexed drains every member before it rethrows the
      // first failure by member index.
      std::vector<JobResult> results =
          pool.map_indexed(members->size(), [&](std::size_t m) {
            const CampaignJob& job = jobs[(*members)[m]];
            obs::TraceSpan job_span(obs::engine_name::kJob, "engine");
            if (job_span.active())
              job_span.annotate("\"kind\":\"" + analysis_kind_name(job.kind) +
                                "\",\"task\":" + json_quote(job.task));
            if (observing) {
              obs::MetricsRegistry::instance().add(
                  "engine.jobs." + analysis_kind_name(job.kind));
            }
            JobResult r;
            switch (job.kind) {
              case AnalysisKind::kSpta:
                r = run_spta(job, *pipeline, spec);
                break;
              case AnalysisKind::kMbpta:
                r = run_mbpta_job(job, program, spec);
                break;
              case AnalysisKind::kSimulation:
                r = run_simulation_job(job, program, spec);
                break;
              case AnalysisKind::kSlack:
                r = run_slack_job(job, program, spec);
                break;
            }
            if (options.on_job_finished) options.on_job_finished();
            if (observing) worker_busy_until_ns = obs::monotonic_ns();
            return r;
          });
      for (std::size_t m = 0; m < members->size(); ++m)
        campaign.results[(*members)[m]] = std::move(results[m]);
      if (observing) worker_busy_until_ns = obs::monotonic_ns();
    }));
  }

  // Block without helping: the submitting thread is not one of the
  // campaign's workers, and letting it steal group tasks would make a
  // "threads = 1" run execute on two threads — corrupting threads_used
  // and every wall-clock/speedup number derived from it. Helping is only
  // needed for nested waits *on* pool threads (map_indexed does that).
  //
  // Futures are iterated in cache-aware submission order, which is a
  // hash order, so the "first in expansion order" rethrow promise is kept
  // by ranking failed groups by their first job's expansion index, not by
  // submission position. Inside a group, map_indexed rethrows the first
  // failure by member index, and members are listed in expansion order.
  std::exception_ptr first_error;
  std::size_t first_error_job = jobs.size();
  for (std::size_t g = 0; g < futures.size(); ++g) {
    try {
      futures[g].get();
    } catch (...) {
      const std::size_t job_index = schedule[shard_begin + g].front();
      if (!first_error || job_index < first_error_job) {
        first_error = std::current_exception();
        first_error_job = job_index;
      }
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  campaign.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  if (store != nullptr) {
    campaign.store_stats = store->stats().since(stats_before);
    // A shard's results are incomplete by design, so it must not publish
    // them as a whole campaign; `pwcet merge` saves the merged one instead.
    if (!sharded) save_campaign(*store, spec_key, campaign);
  }
  return campaign;
}

}  // namespace pwcet
