// Tests for the domain-pluggable pipeline (src/analysis/): the store-key
// compatibility contract — the refactored key chain is pinned against hex
// values captured from the pre-pipeline analyzers, so memo entries and
// disk artifacts written before the refactor keep resolving after it —
// and N-domain composition: a third domain (a TLB) composes with the
// icache and dcache and stays byte-identical at any thread count, store
// on/off, cold or warm.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/l2_domain.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/tlb_domain.hpp"
#include "analysis/writeback_dcache_domain.hpp"
#include "engine/campaign.hpp"
#include "engine/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "store/analysis_store.hpp"
#include "store/artifact_store.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

namespace fs = std::filesystem;

CacheConfig small_dcache() {
  CacheConfig dc = CacheConfig::paper_default();
  dc.sets = 8;
  dc.ways = 2;
  return dc;
}

/// The two historical compositions: the paper's instruction cache alone,
/// and the combined I+D extension.
std::vector<std::shared_ptr<const CacheDomain>> icache_only(
    const CacheConfig& ic) {
  return {std::make_shared<const IcacheDomain>(ic)};
}

std::vector<std::shared_ptr<const CacheDomain>> icache_dcache(
    const CacheConfig& ic, const CacheConfig& dc) {
  return {std::make_shared<const IcacheDomain>(ic),
          std::make_shared<const DcacheDomain>(dc)};
}

/// The "domain-penalty-v1" recipe spelled out from a raw FMM: the
/// distinct rows in first-set order and each set's row index.
StoreKey domain_penalty_recipe(const FaultMissMap& fmm, Cycles miss_penalty,
                               const std::vector<Probability>& pwf,
                               std::size_t budget) {
  std::vector<std::vector<double>> rows;
  std::vector<std::uint32_t> row_of_set;
  std::map<std::vector<double>, std::uint32_t> seen;
  for (const std::vector<double>& misses : fmm.misses) {
    const auto [it, inserted] =
        seen.emplace(misses, static_cast<std::uint32_t>(rows.size()));
    if (inserted) rows.push_back(misses);
    row_of_set.push_back(it->second);
  }
  KeyHasher hasher("domain-penalty-v1");
  hasher.mix_i64(miss_penalty).mix_doubles(pwf).mix_u64(budget);
  hasher.mix_u64(rows.size());
  for (const std::vector<double>& row : rows) hasher.mix_doubles(row);
  hasher.mix_u64(row_of_set.size());
  for (const std::uint32_t row : row_of_set) hasher.mix_u64(row);
  return hasher.finish();
}

/// The "penalty-fold-v1" recipe: a fold prefix chained with the next
/// domain's penalty key.
StoreKey penalty_fold_recipe(const StoreKey& prefix, const StoreKey& next,
                             std::size_t budget) {
  return KeyHasher("penalty-fold-v1")
      .mix_key(prefix)
      .mix_key(next)
      .mix_u64(budget)
      .finish();
}

/// The "penalty-fold-content-v1" recipe: the budget, then both inputs of
/// one fold step atom by atom.
StoreKey fold_content_recipe(const DiscreteDistribution& prefix,
                             const DiscreteDistribution& next,
                             std::size_t budget) {
  KeyHasher hasher("penalty-fold-content-v1");
  hasher.mix_u64(budget);
  for (const DiscreteDistribution* part : {&prefix, &next}) {
    hasher.mix_u64(part->size());
    for (const ProbabilityAtom& atom : part->atoms())
      hasher.mix_i64(atom.value).mix_double(atom.probability);
  }
  return hasher.finish();
}

/// The "age-profile-v1" recipe: program content, the domain's access
/// streams, sets, ways and line size — no engine, no composition, no
/// timing.
StoreKey age_profile_recipe(const Program& program,
                            const CacheDomain& domain) {
  const AccessStreams streams = domain.streams();
  const CacheConfig& config = domain.config();
  return KeyHasher("age-profile-v1")
      .mix_key(hash_program(program))
      .mix_u64(streams.fetches)
      .mix_u64(streams.loads)
      .mix_u64(streams.stores)
      .mix_u64(config.sets)
      .mix_u64(config.ways)
      .mix_u64(config.line_bytes)
      .finish();
}

// ---- pre-refactor golden keys ----------------------------------------------

// Hex values captured from the original single-cache and combined I+D
// analyzers on this exact input (fibcall, the paper-default icache, the
// 8x2 dcache above). If one of these fails, the refactored
// key chain drifted from the historical recipes and every store written
// before the change silently turns into misses — revert the drift (or,
// for an *intentional* semantic change, bump the recipe version tags and
// ArtifactStore::kFormatVersion, then re-pin).
TEST(PipelineGoldenKeys, CoreKeysMatchPreRefactorValues) {
  const Program p = workloads::build("fibcall");
  const CacheConfig ic = CacheConfig::paper_default();

  EXPECT_EQ(pwcet_core_key(p, ic, WcetEngine::kIlp).hex(),
            "cc02c7097bbec7aac3765c1f0b70271e");
  EXPECT_EQ(pwcet_core_key(p, ic, WcetEngine::kTree).hex(),
            "e7bdbda527acf914ba3e580b6a9cee7a");

  // The pipeline keys of the two shipped compositions must reproduce the
  // historical recipes.
  const PwcetPipeline single(p, icache_only(ic));
  EXPECT_EQ(single.core_key().hex(), "cc02c7097bbec7aac3765c1f0b70271e");
  const PwcetPipeline combined(p, icache_dcache(ic, small_dcache()));
  EXPECT_EQ(combined.core_key().hex(), "9fb50b765ec8ffff8199eff92bcfb640");

  // Row-prefix sub-domains: the icache domain shares the single-cache
  // core recipe (so both analyzer flavours share memoized rows); the
  // dcache domain owns a distinct prefix (a data reference map must never
  // alias an instruction one).
  EXPECT_EQ(IcacheDomain(ic).row_key_prefix(p, WcetEngine::kIlp),
            pwcet_core_key(p, ic, WcetEngine::kIlp));
  EXPECT_EQ(DcacheDomain(small_dcache())
                .row_key_prefix(p, WcetEngine::kIlp)
                .hex(),
            "7b8a4afc2cfa84fd06e74c06e57244f1");

  // Penalty layer: a domain's penalty is content-addressed on (miss
  // penalty, pwf, coalescing budget, distinct FMM rows, row_of_set), and
  // a fold prefix chains (prefix key, next domain key, budget).
  // PenaltyMemoEntriesLandOnThePinnedRecipes checks that analyze() keys
  // its entries with exactly these recipes.
  const StoreKey domain = domain_penalty_recipe(
      FaultMissMap{{{0.0, 2.0, 5.0}, {0.0, 0.0, 0.0}, {0.0, 2.0, 5.0}}}, 10,
      {0.5, 0.25, 0.25}, 2048);
  EXPECT_EQ(domain.hex(), "8bbfabbb66a35ac404aca82ce4d0d9f7");
  EXPECT_EQ(penalty_fold_recipe(domain, domain, 2048).hex(), "254c0305b21c15b42ef329b860babc29");

  // Profile layer: a domain's age profile is keyed on what fixes its
  // stream and fixpoints; a fold step is also looked up by the content of
  // its two inputs.
  EXPECT_EQ(age_profile_recipe(p, IcacheDomain(ic)).hex(),
            "fcfd9a8538dde4259bd0df9c79782912");
  EXPECT_EQ(age_profile_recipe(p, DcacheDomain(small_dcache())).hex(),
            "737f309535d85335250f802f0dceb0b7");
  EXPECT_EQ(fold_content_recipe(
                DiscreteDistribution::from_atoms({{0, 0.5}, {20, 0.5}}),
                DiscreteDistribution::from_atoms({{0, 0.75}, {100, 0.25}}),
                2048)
                .hex(),
            "190ef28b9d83615bd4fb26817c67bd3a");
}

TEST(PipelineGoldenKeys, PenaltyMemoEntriesLandOnThePinnedRecipes) {
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-3);
  const std::vector<Mechanism> mechanisms = {
      Mechanism::kReliableWay, Mechanism::kSharedReliableBuffer};
  AnalysisStore store;
  PwcetOptions options;
  options.store = &store;
  const PwcetPipeline combined(
      p, icache_dcache(CacheConfig::paper_default(), small_dcache()),
      options);
  const PwcetResult result = combined.analyze(faults, mechanisms);

  std::vector<StoreKey> domain_keys;
  for (std::size_t i = 0; i < 2; ++i) {
    const CacheConfig& config = combined.domain(i).config();
    domain_keys.push_back(domain_penalty_recipe(
        combined.fmm(i).of(mechanisms[i]), config.miss_penalty,
        faults.way_failure_pmf(config, mechanisms[i]), 2048));
  }
  const StoreKey fold = penalty_fold_recipe(domain_keys[0], domain_keys[1],
                                            2048);
  for (const StoreKey& key : domain_keys)
    EXPECT_NE(store.memo().get(key), nullptr);
  const auto folded = std::static_pointer_cast<const DiscreteDistribution>(
      store.memo().get(fold));
  ASSERT_NE(folded, nullptr);
  EXPECT_EQ(*folded, result.penalty);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NE(store.memo().get(age_profile_recipe(p, combined.domain(i))),
              nullptr);

  // fibcall loads nothing, so the dcache's penalty is the point mass at
  // zero and that fold step convolves nothing. A fold step that convolves
  // is also stored under the content of its two inputs: take the icache
  // with a TLB over the same fetches.
  CacheConfig tlb;
  tlb.sets = 4;
  tlb.ways = 2;
  tlb.line_bytes = 32;
  tlb.hit_latency = 0;
  tlb.miss_penalty = 7;
  const PwcetPipeline with_tlb(
      p,
      {std::make_shared<const IcacheDomain>(CacheConfig::paper_default()),
       std::make_shared<const TlbDomain>(tlb)},
      options);
  const PwcetResult tlb_result = with_tlb.analyze(faults, mechanisms);
  std::vector<DiscreteDistribution> penalties;
  for (std::size_t i = 0; i < 2; ++i) {
    const CacheConfig& config = with_tlb.domain(i).config();
    const auto penalty = std::static_pointer_cast<const DiscreteDistribution>(
        store.memo().get(domain_penalty_recipe(
            with_tlb.fmm(i).of(mechanisms[i]), config.miss_penalty,
            faults.way_failure_pmf(config, mechanisms[i]), 2048)));
    ASSERT_NE(penalty, nullptr);
    ASSERT_NE(*penalty, DiscreteDistribution());
    penalties.push_back(*penalty);
  }
  const auto by_content =
      std::static_pointer_cast<const DiscreteDistribution>(store.memo().get(
          fold_content_recipe(penalties[0], penalties[1], 2048)));
  ASSERT_NE(by_content, nullptr);
  EXPECT_EQ(*by_content, tlb_result.penalty);
  EXPECT_NE(store.memo().get(age_profile_recipe(p, with_tlb.domain(1))),
            nullptr);
}

TEST(PipelineGoldenKeys, ResultArtifactsLandOnPreRefactorKeys) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("pwcet_pipeline_keys_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  const Program p = workloads::build("fibcall");
  StoreOptions disk_options;
  disk_options.artifact_dir = dir;
  AnalysisStore store(disk_options);
  PwcetOptions options;
  options.store = &store;
  const FaultModel faults(1e-4);

  // The per-result disk artifacts are addressed by the live result keys;
  // their file names therefore pin the exact key bytes analyze() chains
  // (core key x mechanisms x pfail x coalescing budget).
  const PwcetPipeline single(p, icache_only(CacheConfig::paper_default()),
                             options);
  single.analyze(faults, Mechanism::kSharedReliableBuffer);
  EXPECT_TRUE(fs::exists(
      fs::path(dir) / "distribution" /
      "8942d3694dac48474a8407b5414c1cb9.jsonl"));

  const PwcetPipeline combined(
      p, icache_dcache(CacheConfig::paper_default(), small_dcache()),
      options);
  combined.analyze(faults,
                   {Mechanism::kReliableWay, Mechanism::kSharedReliableBuffer});
  EXPECT_TRUE(fs::exists(
      fs::path(dir) / "distribution" /
      "7e58309b965fdef2b11b38445e742623.jsonl"));

  fs::remove_all(dir);
}

// The write-back D-cache, TLB and L2 recipes reach no report byte, so the
// spec goldens cannot catch a drift in them: pin their row prefixes, the
// "pwcet-ncore-v1" core key of the four-domain composition and the
// distribution artifact its analyze() writes (fibcall, ILP engine).
TEST(PipelineGoldenKeys, LaterDomainKeysArePinned) {
  const Program p = workloads::build("fibcall");
  CacheConfig l2;
  l2.sets = 64;
  l2.ways = 4;
  l2.line_bytes = 32;
  l2.miss_penalty = 80;
  const auto wb = std::make_shared<const WritebackDcacheDomain>(
      small_dcache(), 40);
  const auto tlb = std::make_shared<const TlbDomain>(TlbAxis{}.geometry());
  const auto shared_l2 = std::make_shared<const L2Domain>(l2);

  EXPECT_EQ(wb->row_key_prefix(p, WcetEngine::kIlp).hex(),
            "d0826c0e0bd8b12ce1f1251d8aaf56de");
  EXPECT_EQ(tlb->row_key_prefix(p, WcetEngine::kIlp).hex(),
            "7c907e66eaae7804e1d66c16f621c452");
  EXPECT_EQ(shared_l2->row_key_prefix(p, WcetEngine::kIlp).hex(),
            "7ef9a8ca2e088515bd31ac093bc14141");

  const std::string dir =
      (fs::temp_directory_path() /
       ("pwcet_later_keys_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  StoreOptions disk_options;
  disk_options.artifact_dir = dir;
  AnalysisStore store(disk_options);
  PwcetOptions options;
  options.store = &store;
  const PwcetPipeline four(
      p,
      {std::make_shared<const IcacheDomain>(CacheConfig::paper_default()), wb,
       tlb, shared_l2},
      options);
  EXPECT_EQ(four.core_key().hex(), "e56776cab39732b9c7160aad41977cbb");
  four.analyze(FaultModel(1e-4), Mechanism::kSharedReliableBuffer);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "distribution" /
                         "f1141d80f6a6807ac3215a4b4a4eb21b.jsonl"));
  fs::remove_all(dir);
}

TEST(PipelineGoldenKeys, NumericResultsMatchPreRefactorValues) {
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-4);

  const PwcetPipeline single(p, icache_only(CacheConfig::paper_default()));
  EXPECT_EQ(single.fault_free_wcet(), 8188u);
  EXPECT_EQ(
      single.analyze(faults, Mechanism::kSharedReliableBuffer).pwcet(1e-15),
      14088u);

  const PwcetPipeline combined(
      p, icache_dcache(CacheConfig::paper_default(), small_dcache()));
  EXPECT_EQ(combined.fault_free_wcet(), 8188u);
  EXPECT_EQ(combined
                .analyze(faults, {Mechanism::kReliableWay,
                                  Mechanism::kSharedReliableBuffer})
                .pwcet(1e-15),
            8188u);
}

// ---- third domain -----------------------------------------------------------

/// The icache and dcache plus a tiny TLB (4 sets x 2 ways of 32-byte
/// pages, 7-cycle page walk): its misses join the summed time model and
/// its faulty-way penalty convolves into the combined distribution.
std::vector<std::shared_ptr<const CacheDomain>> three_domains() {
  CacheConfig tlb;
  tlb.sets = 4;
  tlb.ways = 2;
  tlb.line_bytes = 32;
  tlb.hit_latency = 0;
  tlb.miss_penalty = 7;
  return {std::make_shared<const IcacheDomain>(CacheConfig::paper_default()),
          std::make_shared<const DcacheDomain>(small_dcache()),
          std::make_shared<const TlbDomain>(tlb)};
}

// One distinct mechanism per domain; the TLB runs unprotected so its
// catastrophic fully-faulty column contributes a visible penalty tail.
const std::vector<Mechanism> kMixedMechanisms = {
    Mechanism::kSharedReliableBuffer, Mechanism::kReliableWay,
    Mechanism::kNone};

TEST(ThirdDomain, ComposesWithTheShippedTwo) {
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-3);

  const PwcetPipeline three(p, three_domains());
  const PwcetPipeline two(
      p, icache_dcache(CacheConfig::paper_default(), small_dcache()));

  // The TLB only adds its miss penalties to the single summed
  // maximization, so the WCET cannot drop below the two-domain one...
  EXPECT_GE(three.fault_free_wcet(), two.fault_free_wcet());
  // ...but its core key must not collide with the two-domain composition,
  EXPECT_NE(three.core_key(), two.core_key());
  // ...and its faulty behaviour convolves into the penalty tail.
  const PwcetResult with_tlb = three.analyze(faults, kMixedMechanisms);
  const PwcetResult without =
      two.analyze(faults, {kMixedMechanisms[0], kMixedMechanisms[1]});
  EXPECT_GT(with_tlb.penalty.max_value(), without.penalty.max_value());
  EXPECT_GE(with_tlb.pwcet(1e-15), without.pwcet(1e-15));
  EXPECT_NEAR(with_tlb.penalty.total_mass(), 1.0, 1e-9);
}

TEST(ThirdDomain, ByteIdenticalAtAnyThreadCountStoreOnOffColdWarm) {
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-3);
  const auto domains = three_domains();

  // Baseline: serial, no store.
  const PwcetPipeline baseline(p, domains);
  const PwcetResult base = baseline.analyze(faults, kMixedMechanisms);

  // N threads (oversubscription on narrow hosts is harmless — the
  // convolution tree and set partitioning are fixed-shape).
  ThreadPool pool(3);
  PwcetOptions pooled_options;
  pooled_options.pool = &pool;
  const PwcetPipeline pooled(p, domains, pooled_options);
  const PwcetResult wide = pooled.analyze(faults, kMixedMechanisms);
  EXPECT_EQ(base.fault_free_wcet, wide.fault_free_wcet);
  EXPECT_EQ(base.penalty, wide.penalty);

  // Store on: cold compute, then a warm pipeline whose penalty comes from
  // the memo.
  AnalysisStore store;
  PwcetOptions stored_options;
  stored_options.store = &store;
  const PwcetPipeline cold(p, domains, stored_options);
  const PwcetResult cold_result = cold.analyze(faults, kMixedMechanisms);
  const PwcetPipeline warm(p, domains, stored_options);
  const PwcetResult warm_result = warm.analyze(faults, kMixedMechanisms);
  EXPECT_EQ(base.penalty, cold_result.penalty);
  EXPECT_EQ(base.penalty, warm_result.penalty);
  EXPECT_GT(store.stats().hits, 0u);

  // Disk tier: two stores with fresh memos sharing one artifact
  // directory simulate separate processes; the second run's penalty is
  // answered from the persisted artifact, byte-identically.
  const std::string dir =
      (fs::temp_directory_path() /
       ("pwcet_pipeline_disk_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  StoreOptions disk_options;
  disk_options.artifact_dir = dir;
  {
    AnalysisStore run1(disk_options), run2(disk_options);
    PwcetOptions opt1, opt2;
    opt1.store = &run1;
    opt2.store = &run2;
    const PwcetResult first =
        PwcetPipeline(p, domains, opt1).analyze(faults, kMixedMechanisms);
    const PwcetResult second =
        PwcetPipeline(p, domains, opt2).analyze(faults, kMixedMechanisms);
    EXPECT_EQ(base.penalty, first.penalty);
    EXPECT_EQ(base.penalty, second.penalty);
    EXPECT_GT(run2.stats().disk_hits, 0u);
  }
  fs::remove_all(dir);
}

TEST(ThirdDomain, UniformMechanismOverloadAppliesToEveryDomain) {
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-3);
  const PwcetPipeline three(p, three_domains());
  const PwcetResult uniform = three.analyze(faults, Mechanism::kReliableWay);
  const PwcetResult explicit_vector = three.analyze(
      faults, {Mechanism::kReliableWay, Mechanism::kReliableWay,
               Mechanism::kReliableWay});
  EXPECT_EQ(uniform.penalty, explicit_vector.penalty);
  EXPECT_EQ(uniform.fault_free_wcet, explicit_vector.fault_free_wcet);
}

TEST(ThirdDomain, SecondaryDomainsCannotLeadAPipeline) {
  const Program p = workloads::build("fibcall");
  EXPECT_DEATH(
      PwcetPipeline(p, {std::make_shared<const DcacheDomain>(small_dcache())}),
      "standalone");
}

// ---- the shared re-weighting bundle ----------------------------------------

// The pfail ladder and mechanism set of specs/pfail_sweep.json — the grid
// the bundle exists for.
const std::vector<Probability> kSweepPfails = {6.1e-13, 1e-9, 1e-7, 1e-6,
                                               1e-5,    1e-4, 1e-3};
const std::vector<Mechanism> kAllMechanisms = {
    Mechanism::kNone, Mechanism::kSharedReliableBuffer,
    Mechanism::kReliableWay};

TEST(Reweight, SweptCellsAreByteIdenticalToFreshPipelines) {
  // Property: analyzing N pfail points through ONE pipeline instance —
  // where every point after the first re-weights the cached bundle — is
  // byte-identical to a fresh pipeline per point (which builds its bundle
  // from scratch). Swept across the shipped pfail_sweep tasks, serial and
  // pooled, store off and on (cold + warm within the shared store).
  ThreadPool pool(3);
  for (const char* task : {"adpcm", "fibcall", "matmult", "crc", "fft",
                           "ud"}) {
    const Program p = workloads::build(task);
    const auto domains = icache_only(CacheConfig::paper_default());
    AnalysisStore store;
    PwcetOptions stored_options;
    stored_options.store = &store;
    PwcetOptions pooled_options;
    pooled_options.pool = &pool;
    const PwcetPipeline swept(p, domains);
    const PwcetPipeline swept_stored(p, domains, stored_options);
    const PwcetPipeline swept_pooled(p, domains, pooled_options);
    for (const Mechanism mechanism : kAllMechanisms) {
      for (const Probability pfail : kSweepPfails) {
        const FaultModel faults(pfail);
        const PwcetResult shared = swept.analyze(faults, mechanism);
        const PwcetResult fresh =
            PwcetPipeline(p, domains).analyze(faults, mechanism);
        ASSERT_EQ(shared.penalty, fresh.penalty) << task;
        ASSERT_EQ(shared.fault_free_wcet, fresh.fault_free_wcet) << task;
        ASSERT_EQ(swept_stored.analyze(faults, mechanism).penalty,
                  shared.penalty)
            << task;
        ASSERT_EQ(swept_pooled.analyze(faults, mechanism).penalty,
                  shared.penalty)
            << task;
      }
    }
    // Warm pass: every cell now memoized; must reproduce the same bytes.
    for (const Mechanism mechanism : kAllMechanisms)
      for (const Probability pfail : kSweepPfails)
        ASSERT_EQ(
            swept_stored.analyze(FaultModel(pfail), mechanism).penalty,
            swept.analyze(FaultModel(pfail), mechanism).penalty)
            << task;
  }
}

/// From-scratch reference for the re-weighted penalty: one distribution
/// per cache set straight from its raw FMM row (atom value = miss_penalty
/// * ceil(FMM[s][f]), probability pwf[f]; paper Fig. 1.b), combined by the
/// fixed-shape pairwise convolution tree over every set — no bundle, no
/// row dedup, no memo.
DiscreteDistribution build_penalty_distribution(
    const FaultMissMap& fmm, const CacheConfig& config,
    const std::vector<Probability>& pwf, std::size_t max_points) {
  std::vector<DiscreteDistribution> per_set;
  per_set.reserve(config.sets);
  for (SetIndex s = 0; s < config.sets; ++s) {
    std::vector<ProbabilityAtom> atoms;
    atoms.reserve(pwf.size());
    for (std::size_t f = 0; f < pwf.size(); ++f) {
      const double misses = fmm.at(s, static_cast<std::uint32_t>(f));
      atoms.push_back({static_cast<Cycles>(
                           std::ceil(misses - 1e-6) *
                           static_cast<double>(config.miss_penalty)),
                       pwf[f]});
    }
    per_set.push_back(DiscreteDistribution::from_atoms(std::move(atoms)));
  }
  return convolve_all_tree(per_set, max_points);
}

TEST(Reweight, MatchesTheFromScratchPenaltyComposition) {
  // The re-weighted analyze() against the from-scratch builder above,
  // which reads the raw FMM per cell: bit-equality over every mechanism
  // and the whole pfail ladder proves the bundle path changes nothing.
  const Program p = workloads::build("fibcall");
  const PwcetPipeline pipeline(p, icache_only(CacheConfig::paper_default()));
  for (const Mechanism mechanism : kAllMechanisms) {
    for (const Probability pfail : kSweepPfails) {
      const FaultModel faults(pfail);
      const DiscreteDistribution from_scratch = build_penalty_distribution(
          pipeline.fmm(0).of(mechanism), pipeline.domain(0).config(),
          faults.way_failure_pmf(pipeline.domain(0).config(), mechanism),
          2048);
      ASSERT_EQ(pipeline.analyze(faults, mechanism).penalty, from_scratch);
    }
  }
}

TEST(Reweight, MultiDomainSweepMatchesFreshPipelines) {
  // The bundle carries one scaffold per domain; the cross-domain fold
  // must stay byte-identical under re-weighting too.
  const Program p = workloads::build("fibcall");
  const auto domains =
      icache_dcache(CacheConfig::paper_default(), small_dcache());
  const PwcetPipeline swept(p, domains);
  for (const Probability pfail : kSweepPfails) {
    const FaultModel faults(pfail);
    const PwcetResult shared = swept.analyze(faults, kMixedMechanisms[0]);
    const PwcetResult fresh =
        PwcetPipeline(p, domains).analyze(faults, kMixedMechanisms[0]);
    ASSERT_EQ(shared.penalty, fresh.penalty);
  }
}

// ---- the memoized penalty layer ----------------------------------------------

/// The 12 domain compositions of campaignbench's multi_domain workload:
/// the icache with {no, write-through, write-back} dcache x {no, a} TLB x
/// {no, a shared} L2, in the runner's composition order.
std::vector<std::vector<std::shared_ptr<const CacheDomain>>>
multi_domain_compositions() {
  CacheConfig dcache;
  dcache.sets = 8;
  dcache.ways = 4;
  TlbAxis tlb;
  tlb.entries = 16;
  tlb.ways = 2;
  tlb.page_bytes = 64;
  CacheConfig l2;
  l2.sets = 64;
  l2.ways = 4;
  l2.line_bytes = 32;
  l2.hit_latency = 0;
  l2.miss_penalty = 80;
  std::vector<std::vector<std::shared_ptr<const CacheDomain>>> compositions;
  for (int d = 0; d < 3; ++d) {
    for (const bool with_tlb : {false, true}) {
      for (const bool with_l2 : {false, true}) {
        std::vector<std::shared_ptr<const CacheDomain>> domains;
        domains.push_back(
            std::make_shared<const IcacheDomain>(CacheConfig::paper_default()));
        if (d == 1)
          domains.push_back(std::make_shared<const DcacheDomain>(dcache));
        if (d == 2)
          domains.push_back(
              std::make_shared<const WritebackDcacheDomain>(dcache, 40));
        if (with_tlb)
          domains.push_back(std::make_shared<const TlbDomain>(tlb.geometry()));
        if (with_l2) domains.push_back(std::make_shared<const L2Domain>(l2));
        compositions.push_back(std::move(domains));
      }
    }
  }
  return compositions;
}

TEST(MemoizedPenalty, EveryCompositionMatchesItsStorelessTwin) {
  // Every cell of 12 compositions x 2 tasks x 2 engines runs its three
  // mechanisms concurrently on one shared store and a 4-worker pool,
  // so cells of both engines race on shared penalty keys. Each penalty
  // must equal the store-less serial pipeline's, and a second pass over
  // fresh pipelines on the same store must be answered without a single
  // penalty miss.
  const auto compositions = multi_domain_compositions();
  const std::vector<Program> programs = {workloads::build("fibcall"),
                                         workloads::build("ringbuf")};
  const std::vector<WcetEngine> engines = {WcetEngine::kIlp,
                                           WcetEngine::kTree};
  const FaultModel faults(1e-4);
  const std::size_t cells =
      compositions.size() * programs.size() * engines.size();

  ThreadPool pool(4);
  AnalysisStore store;
  auto run_pass = [&] {
    return pool.map_indexed(cells, [&](std::size_t cell) {
      PwcetOptions options;
      options.engine = engines[cell % engines.size()];
      options.pool = &pool;
      options.store = &store;
      const PwcetPipeline pipeline(
          programs[cell / engines.size() % programs.size()],
          compositions[cell / engines.size() / programs.size()], options);
      std::vector<DiscreteDistribution> penalties;
      for (const Mechanism mechanism : kAllMechanisms)
        penalties.push_back(pipeline.analyze(faults, mechanism).penalty);
      return penalties;
    });
  };

  const auto memoized = run_pass();
  for (std::size_t cell = 0; cell < cells; ++cell) {
    PwcetOptions options;
    options.engine = engines[cell % engines.size()];
    const PwcetPipeline twin(
        programs[cell / engines.size() % programs.size()],
        compositions[cell / engines.size() / programs.size()], options);
    for (std::size_t m = 0; m < kAllMechanisms.size(); ++m)
      ASSERT_EQ(memoized[cell][m],
                twin.analyze(faults, kAllMechanisms[m]).penalty)
          << "cell " << cell << ", mechanism " << m;
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  metrics.clear();
  metrics.enable();
  const auto again = run_pass();
  metrics.disable();
  EXPECT_EQ(again, memoized);
  EXPECT_EQ(metrics.counter("store.memo.penalty.misses").value(), 0u);
  EXPECT_GT(metrics.counter("store.memo.penalty.hits").value(), 0u);
  // Every multi-domain pipeline looked each of its domains' age profiles
  // up once, and the first pass left all of them in the store: one per
  // (task, domain), shared by every composition and both engines.
  std::uint64_t profile_lookups = 0;
  for (const auto& domains : compositions)
    if (domains.size() > 1)
      profile_lookups += domains.size() * programs.size() * engines.size();
  EXPECT_EQ(metrics.counter("store.memo.profile.misses").value(), 0u);
  EXPECT_EQ(metrics.counter("store.memo.profile.hits").value(),
            profile_lookups);
  metrics.clear();

  // A serial pass on a fresh store is deterministic: it convolves exactly
  // once per distinct pair of fold inputs, over every composition and both
  // engines. Its chain keys, read back from the store, give each step's
  // inputs; steps with the point mass at zero on either side convolve
  // nothing. Fewer distinct input pairs than distinct chain keys means the
  // content lookup served folds the chain missed.
  AnalysisStore serial_store;
  std::set<StoreKey> input_pairs, chain_steps;
  metrics.enable();
  for (std::size_t cell = 0; cell < cells; ++cell) {
    PwcetOptions options;
    options.engine = engines[cell % engines.size()];
    options.store = &serial_store;
    const PwcetPipeline pipeline(
        programs[cell / engines.size() % programs.size()],
        compositions[cell / engines.size() / programs.size()], options);
    if (pipeline.domain_count() == 1) continue;
    for (const Mechanism mechanism : kAllMechanisms) {
      pipeline.analyze(faults, mechanism);
      auto penalty_at = [&](const StoreKey& key) {
        const auto value =
            std::static_pointer_cast<const DiscreteDistribution>(
                serial_store.memo().get(key));
        EXPECT_NE(value, nullptr);
        return value != nullptr ? *value : DiscreteDistribution();
      };
      auto domain_key = [&](std::size_t i) {
        const CacheConfig& config = pipeline.domain(i).config();
        return domain_penalty_recipe(
            pipeline.fmm(i).of(mechanism), config.miss_penalty,
            faults.way_failure_pmf(config, mechanism), 2048);
      };
      StoreKey chain = domain_key(0);
      for (std::size_t i = 1; i < pipeline.domain_count(); ++i) {
        const DiscreteDistribution prefix = penalty_at(chain);
        const DiscreteDistribution next = penalty_at(domain_key(i));
        chain = penalty_fold_recipe(chain, domain_key(i), 2048);
        if (prefix == DiscreteDistribution() ||
            next == DiscreteDistribution())
          continue;
        input_pairs.insert(fold_content_recipe(prefix, next, 2048));
        chain_steps.insert(chain);
      }
    }
  }
  metrics.disable();
  EXPECT_EQ(metrics.histogram(obs::phase_name::kFold).snapshot().count,
            input_pairs.size());
  EXPECT_LT(input_pairs.size(), chain_steps.size());
  metrics.clear();
}

TEST(MemoizedPenalty, AZeroFmmDomainAddsNoFold) {
  // fibcall makes no data access, so a data cache sees an empty stream:
  // its FMM is all zero and its penalty the point mass at zero, the
  // neutral element of convolution. With a store, composing it adds no
  // fold: on a fresh store [icache, dcache, L2] folds as often as
  // [icache, L2], and after [icache, L2] it folds nothing — on both
  // engines, with the bytes of its store-less twin. (The point mass is
  // exact only where the pwf sums to exactly 1.0, as for this 8x2 dcache
  // at pfail 1e-4; elsewhere the all-zero penalty is one atom at 0 of
  // probability 1 +- a few ulp, which rescales what it folds into.)
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-4);
  CacheConfig l2;
  l2.sets = 64;
  l2.ways = 4;
  l2.line_bytes = 32;
  l2.hit_latency = 0;
  l2.miss_penalty = 80;
  const auto icache =
      std::make_shared<const IcacheDomain>(CacheConfig::paper_default());
  const auto dcache = std::make_shared<const DcacheDomain>(small_dcache());
  const auto shared_l2 = std::make_shared<const L2Domain>(l2);
  const std::vector<std::shared_ptr<const CacheDomain>> without = {icache,
                                                                   shared_l2};
  const std::vector<std::shared_ptr<const CacheDomain>> with = {
      icache, dcache, shared_l2};

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  metrics.clear();
  metrics.enable();
  auto folds = [&] {
    return metrics.histogram(obs::phase_name::kFold).snapshot().count;
  };
  std::uint64_t total_folds = 0;
  for (const WcetEngine engine : {WcetEngine::kIlp, WcetEngine::kTree}) {
    PwcetOptions plain;
    plain.engine = engine;
    const PwcetPipeline twin(p, with, plain);
    for (const Mechanism mechanism : kAllMechanisms) {
      const std::vector<Mechanism> mechanisms(3, mechanism);
      for (const std::vector<double>& row : twin.fmm(1).of(mechanism).misses)
        for (const double misses : row) ASSERT_EQ(misses, 0.0);
      const DiscreteDistribution expected =
          twin.analyze(faults, mechanisms).penalty;

      auto analyze = [&](AnalysisStore& store,
                         const std::vector<std::shared_ptr<const CacheDomain>>&
                             domains) {
        PwcetOptions options = plain;
        options.store = &store;
        const std::uint64_t before = folds();
        const DiscreteDistribution penalty =
            PwcetPipeline(p, domains, options)
                .analyze(faults, std::vector<Mechanism>(domains.size(),
                                                        mechanism))
                .penalty;
        return std::make_pair(penalty, folds() - before);
      };
      AnalysisStore fresh_without, fresh_with, shared;
      const auto [penalty_without, folds_without] =
          analyze(fresh_without, without);
      const auto [penalty_with, folds_with] = analyze(fresh_with, with);
      const auto zero = std::static_pointer_cast<const DiscreteDistribution>(
          fresh_with.memo().get(domain_penalty_recipe(
              twin.fmm(1).of(mechanism), small_dcache().miss_penalty,
              faults.way_failure_pmf(small_dcache(), mechanism), 2048)));
      ASSERT_NE(zero, nullptr);
      ASSERT_EQ(*zero, DiscreteDistribution());
      EXPECT_EQ(penalty_without, expected);
      EXPECT_EQ(penalty_with, expected);
      EXPECT_EQ(folds_with, folds_without);
      total_folds += folds_without;

      analyze(shared, without);
      const auto [penalty_after, folds_after] = analyze(shared, with);
      EXPECT_EQ(penalty_after, expected);
      EXPECT_EQ(folds_after, 0u);
    }
  }
  metrics.disable();
  metrics.clear();
  // The compositions do fold: the L2's penalty is not the point mass.
  EXPECT_GT(total_folds, 0u);
}

TEST(MemoizedPenalty, SingleDomainAndStorelessPipelinesMakeNoLookup) {
  const Program p = workloads::build("fibcall");
  const FaultModel faults(1e-4);
  AnalysisStore store;
  PwcetOptions stored;
  stored.store = &store;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  metrics.clear();
  metrics.enable();
  PwcetPipeline(p, icache_only(CacheConfig::paper_default()), stored)
      .analyze(faults, Mechanism::kReliableWay);
  PwcetPipeline(p, three_domains()).analyze(faults, kMixedMechanisms);
  metrics.disable();
  EXPECT_EQ(metrics.counter("store.memo.penalty.hits").value() +
                metrics.counter("store.memo.penalty.misses").value(),
            0u);
  EXPECT_EQ(store.stats().entries, 0u);
  metrics.clear();
}

}  // namespace
}  // namespace pwcet
