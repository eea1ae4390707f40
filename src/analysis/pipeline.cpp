#include "analysis/pipeline.hpp"

#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "engine/thread_pool.hpp"
#include "obs/phase.hpp"
#include "store/analysis_store.hpp"
#include "support/contracts.hpp"
#include "wcet/ipet.hpp"
#include "wcet/tree_engine.hpp"

namespace pwcet {

/// Payload bytes of a memoized penalty and of a memoized age profile (see
/// memo_cache.hpp); outside the unnamed namespace so that MemoCache finds
/// them by argument-dependent lookup.
static std::uint64_t payload_bytes(const DiscreteDistribution& penalty) {
  return penalty.size() * sizeof(ProbabilityAtom);
}
static std::uint64_t payload_bytes(const AgeProfile& profile) {
  return profile.payload_bytes();
}
static std::uint64_t payload_bytes(const FmmBundle& bundle) {
  std::uint64_t doubles = 0;
  for (const FaultMissMap* fmm : {&bundle.none, &bundle.rw, &bundle.srb})
    for (const std::vector<double>& row : fmm->misses) doubles += row.size();
  return doubles * sizeof(double);
}

namespace {

/// The pipeline's one memo rule, applied: with a memo (a store and more
/// than one domain), `compute`'s result is shared under the content key
/// `key()` names in the memo layer `layer`; without one, it is computed
/// directly and no key is hashed.
template <typename T, typename Key, typename Compute>
std::shared_ptr<const T> shared(MemoCache* memo, const char* layer,
                                const Key& key, Compute&& compute) {
  if (memo == nullptr) return std::make_shared<const T>(compute());
  return memo->get_or_compute<T>(key(), std::forward<Compute>(compute),
                                 layer);
}

/// One domain's scaffold under one mechanism: its FMM's distinct rows
/// and their atom values at the domain's miss penalty.
PenaltyScaffold build_scaffold(const FaultMissMap& fmm,
                               const CacheConfig& config) {
  PenaltyScaffold scaffold;
  scaffold.row_of_set.resize(fmm.misses.size());
  std::map<std::vector<double>, std::uint32_t> seen;
  for (std::size_t s = 0; s < fmm.misses.size(); ++s) {
    const auto [it, inserted] = seen.emplace(
        fmm.misses[s], static_cast<std::uint32_t>(scaffold.rows.size()));
    if (inserted) {
      scaffold.rows.push_back(fmm.misses[s]);
      std::vector<Cycles> penalties;
      penalties.reserve(fmm.misses[s].size());
      for (const double misses : fmm.misses[s])
        penalties.push_back(static_cast<Cycles>(
            std::ceil(misses - 1e-6) *
            static_cast<double>(config.miss_penalty)));
      scaffold.penalties.push_back(std::move(penalties));
    }
    scaffold.row_of_set[s] = it->second;
  }
  return scaffold;
}

/// One domain's penalty distribution under the given pwf (paper Fig. 1.b):
/// each *distinct* FMM row becomes one distribution — atom values are the
/// row's precomputed penalties, probabilities pwf[f] — and the independent
/// sets combine through the deduplicating pairwise convolution tree, which
/// keeps the fixed per-set tree shape (the rounds parallelize and the
/// coalescing error stacks O(log S) deep instead of O(S)). Bit-identical
/// at any thread count and to a from-scratch per-set build (pinned by
/// tests/analysis_pipeline_test.cpp).
DiscreteDistribution build_reweighted_penalty(
    const PenaltyScaffold& domain, const std::vector<Probability>& pwf,
    std::size_t max_points, ThreadPool* pool) {
  obs::ScopedPhase penalty_phase(obs::phase_name::kPenalty);
  auto build_row = [&](std::size_t r) {
    PWCET_EXPECTS(pwf.size() <= domain.penalties[r].size());
    std::vector<ProbabilityAtom> atoms;
    atoms.reserve(pwf.size());
    for (std::size_t f = 0; f < pwf.size(); ++f)
      atoms.push_back({domain.penalties[r][f], pwf[f]});
    return DiscreteDistribution::from_atoms(std::move(atoms));
  };
  const std::vector<DiscreteDistribution> distinct =
      map_indexed(pool, domain.rows.size(), build_row);
  obs::ScopedPhase convolve_phase(obs::phase_name::kConvolve);
  return convolve_all_tree_shared(distinct, domain.row_of_set, max_points,
                                  pool);
}

/// Content key of one domain's penalty ("domain-penalty-v1"): every input
/// of build_reweighted_penalty — the miss penalty and the distinct FMM
/// rows (which fix the atom values), pwf, the coalescing budget and the
/// set-to-row map (which fixes the convolution tree). Equal keys are
/// equal penalties across compositions, engines and tasks.
StoreKey domain_penalty_key(const PenaltyScaffold& domain,
                            Cycles miss_penalty,
                            const std::vector<Probability>& pwf,
                            std::size_t max_points) {
  KeyHasher hasher("domain-penalty-v1");
  hasher.mix_i64(miss_penalty).mix_doubles(pwf).mix_u64(max_points);
  hasher.mix_u64(domain.rows.size());
  for (const std::vector<double>& row : domain.rows) hasher.mix_doubles(row);
  hasher.mix_u64(domain.row_of_set.size());
  for (const std::uint32_t row : domain.row_of_set) hasher.mix_u64(row);
  return hasher.finish();
}

/// Content key of one fold step ("penalty-fold-content-v1"): both input
/// distributions atom by atom and the coalescing budget, which fix the
/// convolution and its coalescing. Compositions that reach the same pair
/// of inputs share one fold: compositions extending a common prefix, the
/// ILP and tree twins of a cell whose FMM rows differ only below the
/// penalty's rounding, and compositions with and without a domain whose
/// penalty is the point mass at zero.
StoreKey fold_content_key(const DiscreteDistribution& prefix,
                          const DiscreteDistribution& next,
                          std::size_t max_points) {
  KeyHasher hasher("penalty-fold-content-v1");
  hasher.mix_u64(max_points);
  for (const DiscreteDistribution* part : {&prefix, &next}) {
    hasher.mix_u64(part->size());
    for (const ProbabilityAtom& atom : part->atoms())
      hasher.mix_i64(atom.value).mix_double(atom.probability);
  }
  return hasher.finish();
}

/// Content key of one domain's age profile ("age-profile-v1"): the program
/// and what fixes its reference stream and its fixpoints — the access
/// streams, sets, line size and full associativity. No engine, no
/// composition and no timing, so every pipeline of a campaign that shares
/// a (task, domain) shares its profile.
StoreKey age_profile_key(const StoreKey& program_key,
                         const CacheDomain& domain) {
  const AccessStreams streams = domain.streams();
  const CacheConfig& config = domain.config();
  return KeyHasher("age-profile-v1")
      .mix_key(program_key)
      .mix_u64(streams.fetches)
      .mix_u64(streams.loads)
      .mix_u64(streams.stores)
      .mix_u64(config.sets)
      .mix_u64(config.ways)
      .mix_u64(config.line_bytes)
      .finish();
}

/// Content key of one domain's tree-engine FMM bundle ("tree-fmm-v1"),
/// chained from its age profile's key: the tree FMM reads the program, the
/// reference stream and the profile, and none of the timing, so the
/// profile's inputs are all of its inputs.
StoreKey tree_fmm_key(const StoreKey& profile_key) {
  return KeyHasher("tree-fmm-v1").mix_key(profile_key).finish();
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
  // Single icache composition: the historical "pwcet-core-v1" recipe.
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
  for (const auto& domain : domains)
    hasher.mix_key(hash_cache_config(domain->config()));
  hasher.mix_u64(static_cast<std::uint64_t>(engine));
  return hasher.finish();
}

}  // namespace

StoreKey pwcet_core_key(const Program& program, const CacheConfig& config,
                        WcetEngine engine) {
  return KeyHasher("pwcet-core-v1")
      .mix_key(hash_program(program))
      .mix_key(hash_cache_config(config))
      .mix_u64(static_cast<std::uint64_t>(engine))
      .finish();
}

PwcetPipeline::PwcetPipeline(
    const Program& program,
    std::vector<std::shared_ptr<const CacheDomain>> domains,
    const PwcetOptions& options)
    : program_(program), domains_(std::move(domains)), options_(options) {
  PWCET_EXPECTS(!domains_.empty());
  for (const auto& domain : domains_) PWCET_EXPECTS(domain != nullptr);
  PWCET_EXPECTS(domains_.front()->standalone());
  core_key_ = pipeline_core_key(program_, domains_, options_.engine);
  if (options_.store != nullptr && domains_.size() > 1)
    memo_ = &options_.store->memo();

  obs::ScopedPhase core_phase(obs::phase_name::kCore);
  std::vector<ReferenceMap> refs;
  {
    obs::ScopedPhase phase(obs::phase_name::kExtract);
    refs.reserve(domains_.size());
    for (const auto& domain : domains_)
      refs.push_back(extract_references(program_.cfg(), domain->config(),
                                        domain->streams()));
  }

  std::unique_ptr<IpetCalculator> ipet;
  if (options_.engine == WcetEngine::kIlp)
    ipet = std::make_unique<IpetCalculator>(program_);

  // One age profile per domain serves its fault-free classification and
  // every FMM column; a memoizing pipeline shares it with every
  // composition and engine of the campaign that has the same (task,
  // domain). The program is hashed once, on the first key.
  std::vector<std::shared_ptr<const AgeProfile>> profiles;
  profiles.reserve(domains_.size());
  std::optional<StoreKey> program_key;
  auto profile_key = [&](std::size_t i) {
    if (!program_key) program_key = hash_program(program_);
    return age_profile_key(*program_key, *domains_[i]);
  };

  // One classification per domain, one summed time model, one phase-1
  // maximization bounding the whole program. A secondary domain charges
  // misses only: the access's execution cycle is the primary domain's
  // hit latency, so it is priced with none of its own.
  CostModel total;
  {
    obs::ScopedPhase phase(obs::phase_name::kClassify);
    for (std::size_t i = 0; i < domains_.size(); ++i) {
      profiles.push_back(shared<AgeProfile>(
          memo_, "profile", [&] { return profile_key(i); },
          [&] {
            return AgeProfile(program_.cfg(), refs[i], domains_[i]->config());
          }));
      const ClassificationMap cls = classify_fault_free(*profiles[i]);
      CacheConfig priced = domains_[i]->config();
      if (!domains_[i]->standalone()) priced.hit_latency = 0;
      CostModel contribution =
          build_time_cost_model(program_.cfg(), refs[i], cls, priced);
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
      wcet = ipet->maximize(total);
    else
      wcet = tree_maximize(program_, total);
  }
  // The time model is integral; ceil absorbs LP round-off soundly.
  fault_free_wcet_ = static_cast<Cycles>(std::ceil(wcet - 1e-6));

  // An ILP bundle depends on the call sequence of the warm-started simplex
  // that all of the composition's domains share, so only tree bundles are
  // shared.
  obs::ScopedPhase phase(obs::phase_name::kFmm);
  MemoCache* const fmm_memo =
      options_.engine == WcetEngine::kTree ? memo_ : nullptr;
  fmms_.reserve(domains_.size());
  scaffolds_.resize(domains_.size());
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    fmms_.push_back(shared<FmmBundle>(
        fmm_memo, "fmm", [&] { return tree_fmm_key(profile_key(i)); },
        [&] {
          return compute_fmm_bundle(program_, domains_[i]->config(), refs[i],
                                    *profiles[i], options_.engine, ipet.get(),
                                    options_.pool);
        }));
    for (const Mechanism mechanism :
         {Mechanism::kNone, Mechanism::kReliableWay,
          Mechanism::kSharedReliableBuffer})
      scaffolds_[i][static_cast<std::size_t>(mechanism)] = build_scaffold(
          fmms_[i]->of(mechanism), domains_[i]->config());
  }
}

PwcetResult PwcetPipeline::analyze(const FaultModel& faults,
                                   Mechanism mechanism) const {
  return analyze(faults,
                 std::vector<Mechanism>(domains_.size(), mechanism));
}

PwcetResult PwcetPipeline::analyze(
    const FaultModel& faults, const std::vector<Mechanism>& mechanisms) const {
  PWCET_EXPECTS(mechanisms.size() == domains_.size());
  obs::ScopedPhase analyze_phase(obs::phase_name::kAnalyze);
  PwcetResult result;
  result.mechanism = mechanisms.front();
  result.fault_free_wcet = fault_free_wcet_;

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
      pwfs.push_back(
          faults.way_failure_pmf(domains_[i]->config(), mechanisms[i]));
  }

  // Each domain's penalty re-weights its pfail-independent scaffold under
  // the domain's mechanism; only the per-row weighting + the convolution
  // fold run per pfail. Domains are physically disjoint SRAM arrays —
  // their fault counts are independent — so the cross-domain penalty is
  // the convolution, folded in domain order with the same coalescing
  // budget. A memoizing pipeline shares each domain penalty and each fold
  // step under the content of their inputs, so a composition met before
  // (or the other engine's twin of this cell) convolves nothing, and one
  // that extends a known prefix folds only its new domains.
  const std::size_t budget = options_.max_distribution_points;
  auto domain_penalty = [&](std::size_t i) {
    const PenaltyScaffold& scaffold =
        scaffolds_[i][static_cast<std::size_t>(mechanisms[i])];
    return shared<DiscreteDistribution>(
        memo_, "penalty",
        [&] {
          return domain_penalty_key(scaffold,
                                    domains_[i]->config().miss_penalty,
                                    pwfs[i], budget);
        },
        [&] {
          return build_reweighted_penalty(scaffold, pwfs[i], budget,
                                          options_.pool);
        });
  };
  std::shared_ptr<const DiscreteDistribution> penalty = domain_penalty(0);
  for (std::size_t i = 1; i < domains_.size(); ++i) {
    std::shared_ptr<const DiscreteDistribution> next = domain_penalty(i);
    // The point mass at zero — the penalty of an all-zero FMM wherever its
    // pwf sums to exactly 1.0 — is the convolution's neutral element, and
    // every penalty already fits the budget, so folding it in returns the
    // other side bit for bit.
    if (*next == DiscreteDistribution()) continue;
    if (*penalty == DiscreteDistribution()) {
      penalty = std::move(next);
      continue;
    }
    penalty = shared<DiscreteDistribution>(
        memo_, "penalty",
        [&] { return fold_content_key(*penalty, *next, budget); },
        [&] {
          obs::ScopedPhase fold_phase(obs::phase_name::kFold);
          return penalty->convolve(*next).coalesce_up(budget);
        });
  }
  result.penalty = *penalty;
  if (artifacts != nullptr)
    artifacts->store_distribution(result_key, result.penalty);
  return result;
}

}  // namespace pwcet
