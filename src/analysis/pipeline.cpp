#include "analysis/pipeline.hpp"

#include <cmath>
#include <optional>
#include <utility>

#include "analysis/icache_domain.hpp"
#include "engine/thread_pool.hpp"
#include "obs/phase.hpp"
#include "store/analysis_store.hpp"
#include "support/contracts.hpp"
#include "wcet/ipet.hpp"
#include "wcet/tree_engine.hpp"

namespace pwcet {

/// Pfail-independent penalty scaffolding of one per-domain mechanism
/// assignment — everything analyze() needs below the pwf weighting. Every
/// pfail point of a sweep resolves to the same bundle and pays only the
/// re-weighting and the final convolution fold.
struct PenaltyBundle {
  struct Domain {
    /// Distinct FMM rows, numbered in first-set order; `row_of_set` maps
    /// each cache set to its row. Sets sharing a row (untouched sets,
    /// symmetric layouts) share one penalty distribution per pfail and
    /// one subtree per convolution round.
    std::vector<std::uint32_t> row_of_set;
    /// Raw per-row miss counts — kept verbatim because they are the
    /// "set-penalty-v1" key material.
    std::vector<std::vector<double>> rows;
    /// Precomputed atom values per row: ceil(misses) * miss_penalty
    /// (paper Fig. 1.b), one per possible fault count.
    std::vector<std::vector<Cycles>> penalties;
  };
  std::vector<Domain> domains;  ///< one per pipeline domain, in order
};

namespace {

PenaltyBundle::Domain build_domain_scaffold(const FaultMissMap& fmm,
                                            const CacheConfig& config) {
  PenaltyBundle::Domain domain;
  domain.row_of_set.resize(fmm.misses.size());
  std::map<std::vector<double>, std::uint32_t> seen;
  for (std::size_t s = 0; s < fmm.misses.size(); ++s) {
    const auto [it, inserted] = seen.emplace(
        fmm.misses[s], static_cast<std::uint32_t>(domain.rows.size()));
    if (inserted) {
      domain.rows.push_back(fmm.misses[s]);
      std::vector<Cycles> penalties;
      penalties.reserve(fmm.misses[s].size());
      for (const double misses : fmm.misses[s])
        penalties.push_back(static_cast<Cycles>(
            std::ceil(misses - 1e-6) *
            static_cast<double>(config.miss_penalty)));
      domain.penalties.push_back(std::move(penalties));
    }
    domain.row_of_set[s] = it->second;
  }
  return domain;
}

/// One domain's penalty distribution under the given pwf (paper Fig. 1.b):
/// each *distinct* FMM row becomes one distribution — atom values are the
/// row's precomputed penalties, probabilities pwf[f] — and the independent
/// sets combine through the deduplicating pairwise convolution tree, which
/// keeps the fixed per-set tree shape (the rounds parallelize and the
/// coalescing error stacks O(log S) deep instead of O(S)). With a store,
/// each row's distribution is memoized under a content key (miss penalty,
/// pwf, FMM row: "set-penalty-v1"), so identical rows share across sets,
/// mechanisms, domains and tasks. Bit-identical at any thread count, store
/// on or off, and to a from-scratch per-set build (pinned by
/// tests/analysis_pipeline_test.cpp).
DiscreteDistribution build_reweighted_penalty(
    const PenaltyBundle::Domain& domain, const CacheConfig& config,
    const std::vector<Probability>& pwf, std::size_t max_points,
    ThreadPool* pool, AnalysisStore* store) {
  obs::ScopedPhase penalty_phase(obs::phase_name::kPenalty);
  auto build_row_cold = [&](std::size_t r) {
    PWCET_EXPECTS(pwf.size() <= domain.penalties[r].size());
    std::vector<ProbabilityAtom> atoms;
    atoms.reserve(pwf.size());
    for (std::size_t f = 0; f < pwf.size(); ++f)
      atoms.push_back({domain.penalties[r][f], pwf[f]});
    return DiscreteDistribution::from_atoms(std::move(atoms));
  };
  auto build_row = [&](std::size_t r) {
    if (store == nullptr) return build_row_cold(r);
    const StoreKey key = KeyHasher("set-penalty-v1")
                             .mix_i64(config.miss_penalty)
                             .mix_doubles(pwf)
                             .mix_doubles(domain.rows[r])
                             .finish();
    return *store->memo().get_or_compute<DiscreteDistribution>(
        key, [&] { return build_row_cold(r); }, "set-penalty");
  };
  std::vector<DiscreteDistribution> distinct;
  if (pool != nullptr) {
    distinct = pool->map_indexed(domain.rows.size(), build_row);
  } else {
    distinct.reserve(domain.rows.size());
    for (std::size_t r = 0; r < domain.rows.size(); ++r)
      distinct.push_back(build_row(r));
  }
  obs::ScopedPhase convolve_phase(obs::phase_name::kConvolve);
  return convolve_all_tree_shared(distinct, domain.row_of_set, max_points,
                                  pool);
}

/// Adds `other` into `total` term by term. Folding the domains' models
/// this way reproduces the historical arithmetic exactly: a single-domain
/// pipeline maximizes the primary model untouched, and a two-domain one
/// sees the same sums the combined analyzer's sum_models produced.
void add_cost_model(CostModel& total, const CostModel& other) {
  for (std::size_t i = 0; i < total.block_cost.size(); ++i)
    total.block_cost[i] += other.block_cost[i];
  for (std::size_t i = 0; i < total.loop_entry_cost.size(); ++i)
    total.loop_entry_cost[i] += other.loop_entry_cost[i];
  total.root_entry_cost += other.root_entry_cost;
}

/// The chained core key. Compatibility contract (pipeline.hpp): the two
/// shipped compositions reproduce the pre-pipeline analyzer recipes bit
/// for bit so existing disk artifacts keep resolving;
/// any other composition gets its own sub-domain that additionally chains
/// the domain count and names (two differently-shaped compositions whose
/// config streams coincide must never alias).
StoreKey pipeline_core_key(
    const Program& program,
    const std::vector<std::shared_ptr<const CacheDomain>>& domains,
    WcetEngine engine) {
  // Single icache composition: delegate to the one definition of the
  // historical "pwcet-core-v1" recipe (analysis/icache_domain.cpp) so
  // there is no second copy to drift.
  if (domains.size() == 1 && domains[0]->name() == "icache")
    return pwcet_core_key(program, domains[0]->config(), engine);
  const bool legacy_pair = domains.size() == 2 &&
                           domains[0]->name() == "icache" &&
                           domains[1]->name() == "dcache";
  KeyHasher hasher(legacy_pair ? "pwcet-dcore-v1" : "pwcet-ncore-v1");
  hasher.mix_key(hash_program(program));
  if (!legacy_pair) {
    hasher.mix_u64(domains.size());
    for (const auto& domain : domains) hasher.mix_string(domain->name());
  }
  for (const auto& domain : domains) domain->mix_core_key(hasher);
  hasher.mix_u64(static_cast<std::uint64_t>(engine));
  return hasher.finish();
}

}  // namespace

PwcetPipeline::PwcetPipeline(
    const Program& program,
    std::vector<std::shared_ptr<const CacheDomain>> domains,
    const PwcetOptions& options)
    : program_(program), domains_(std::move(domains)), options_(options) {
  PWCET_EXPECTS(!domains_.empty());
  for (const auto& domain : domains_) PWCET_EXPECTS(domain != nullptr);
  PWCET_EXPECTS(domains_.front()->standalone());
  core_key_ = pipeline_core_key(program_, domains_, options_.engine);

  obs::ScopedPhase core_phase(obs::phase_name::kCore);
  std::vector<ReferenceMap> refs;
  {
    obs::ScopedPhase phase(obs::phase_name::kExtract);
    refs.reserve(domains_.size());
    for (const auto& domain : domains_)
      refs.push_back(domain->extract(program_));
  }

  std::unique_ptr<IpetCalculator> ipet;
  if (options_.engine == WcetEngine::kIlp)
    ipet = std::make_unique<IpetCalculator>(program_);

  // One classification per domain, one summed time model, one phase-1
  // maximization bounding the whole program.
  CostModel total;
  {
    obs::ScopedPhase phase(obs::phase_name::kClassify);
    for (std::size_t i = 0; i < domains_.size(); ++i) {
      const ClassificationMap cls = domains_[i]->classify(program_, refs[i]);
      CostModel contribution =
          domains_[i]->time_cost_model(program_, refs[i], cls);
      if (i == 0)
        total = std::move(contribution);
      else
        add_cost_model(total, contribution);
    }
  }

  double wcet = 0.0;
  {
    obs::ScopedPhase phase(obs::phase_name::kMaximize);
    if (options_.engine == WcetEngine::kIlp)
      wcet = ipet->maximize(total).objective;
    else
      wcet = tree_maximize(program_, total);
  }
  // The time model is integral; ceil absorbs LP round-off soundly.
  fault_free_wcet_ = static_cast<Cycles>(std::ceil(wcet - 1e-6));

  obs::ScopedPhase phase(obs::phase_name::kFmm);
  fmms_.reserve(domains_.size());
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    const StoreKey row_prefix =
        domains_[i]->row_key_prefix(program_, options_.engine);
    fmms_.push_back(domains_[i]->fmm_bundle(program_, refs[i],
                                            options_.engine, ipet.get(),
                                            options_.pool, options_.store,
                                            &row_prefix));
  }
}

PwcetResult PwcetPipeline::analyze(const FaultModel& faults,
                                   Mechanism mechanism) const {
  return analyze(faults,
                 std::vector<Mechanism>(domains_.size(), mechanism));
}

std::shared_ptr<const PenaltyBundle> PwcetPipeline::acquire_bundle(
    const std::vector<Mechanism>& mechanisms) const {
  std::lock_guard<std::mutex> lock(bundle_mutex_);
  std::shared_ptr<const PenaltyBundle>& slot = bundle_cache_[mechanisms];
  if (slot == nullptr) {
    auto bundle = std::make_shared<PenaltyBundle>();
    bundle->domains.reserve(domains_.size());
    for (std::size_t i = 0; i < domains_.size(); ++i)
      bundle->domains.push_back(build_domain_scaffold(
          fmms_[i].of(mechanisms[i]), domains_[i]->config()));
    slot = std::move(bundle);
  }
  return slot;
}

PwcetResult PwcetPipeline::analyze(
    const FaultModel& faults, const std::vector<Mechanism>& mechanisms) const {
  PWCET_EXPECTS(mechanisms.size() == domains_.size());
  obs::ScopedPhase analyze_phase(obs::phase_name::kAnalyze);
  PwcetResult result;
  result.mechanism = mechanisms.front();
  result.fault_free_wcet = fault_free_wcet_;
  result.fmm = fmms_.front().of(mechanisms.front());

  // Artifact tier: the penalty distribution (the only expensive part of
  // the result) may survive from an earlier process or another spec. Its
  // key covers everything this function reads: (core, mechanisms, pfail,
  // coalescing budget). The single-domain tag is the historical
  // per-mechanism result key, the multi-domain tag the combined
  // analyzer's; compositions of different shapes cannot alias because the
  // chained core key already separates them.
  ArtifactStore* artifacts =
      options_.store != nullptr ? options_.store->artifacts() : nullptr;
  StoreKey result_key;
  if (artifacts != nullptr) {
    KeyHasher hasher(domains_.size() == 1 ? "pwcet-result-v1"
                                          : "pwcet-dresult-v1");
    hasher.mix_key(core_key_);
    for (const Mechanism mechanism : mechanisms)
      hasher.mix_u64(static_cast<std::uint64_t>(mechanism));
    result_key = hasher.mix_double(faults.pfail())
                     .mix_u64(options_.max_distribution_points)
                     .finish();
    if (std::optional<DiscreteDistribution> penalty =
            artifacts->load_distribution(result_key)) {
      result.penalty = *std::move(penalty);
      return result;
    }
  }

  // The pwf weighting vectors (Eq. 2/3) for every domain, hoisted ahead of
  // the penalty builds so the phase is visible on its own. pwf is a pure
  // function of (faults, mechanism), so hoisting cannot change the bits.
  std::vector<std::vector<Probability>> pwfs;
  {
    obs::ScopedPhase phase(obs::phase_name::kPwf);
    pwfs.reserve(domains_.size());
    for (std::size_t i = 0; i < domains_.size(); ++i)
      pwfs.push_back(domains_[i]->pwf(faults, mechanisms[i]));
  }

  // Each domain's penalty re-weights the shared pfail-independent bundle:
  // the scaffold is built once per mechanism assignment, and only the
  // per-row weighting + the convolution fold run per pfail.
  // Domains are physically disjoint SRAM arrays — their fault counts are
  // independent — so the cross-domain penalty is the convolution, folded
  // in domain order with the same coalescing budget.
  std::shared_ptr<const PenaltyBundle> bundle;
  {
    obs::ScopedPhase bundle_phase(obs::phase_name::kBundle);
    bundle = acquire_bundle(mechanisms);
  }
  auto domain_penalty = [&](std::size_t i) {
    return build_reweighted_penalty(
        bundle->domains[i], domains_[i]->config(), pwfs[i],
        options_.max_distribution_points, options_.pool, options_.store);
  };
  DiscreteDistribution penalty = domain_penalty(0);
  for (std::size_t i = 1; i < domains_.size(); ++i) {
    const DiscreteDistribution next = domain_penalty(i);
    obs::ScopedPhase fold_phase(obs::phase_name::kFold);
    penalty = penalty.convolve(next).coalesce_up(
        options_.max_distribution_points);
  }
  result.penalty = std::move(penalty);
  if (artifacts != nullptr)
    artifacts->store_distribution(result_key, result.penalty);
  return result;
}

}  // namespace pwcet
