// Tests for the data-cache extension (paper §VI future work), including
// simulator-backed soundness of the data-side FMM.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "support/rng.hpp"
#include "wcet/tree_engine.hpp"

namespace pwcet {
namespace {

/// A table-lookup kernel: the loop body loads a 4-entry scalar cluster and
/// walks a 64-byte constant table region.
Program data_program() {
  ProgramBuilder b("data_task");
  const Address table = 0x2000;
  std::vector<Address> body_loads;
  for (Address i = 0; i < 4; ++i) body_loads.push_back(0x1000 + 4 * i);
  for (Address i = 0; i < 4; ++i) body_loads.push_back(table + 16 * i);
  b.add_function("main",
                 b.seq({
                     b.code_with_loads(8, {0x1000, 0x1010}),
                     b.loop(1, 20, b.code_with_loads(12, body_loads)),
                     b.code_with_loads(4, {0x1000}),
                 }));
  return b.build(0);
}

/// The combined I+D composition: domain 0 is the instruction cache,
/// domain 1 the data cache.
PwcetPipeline combined_pipeline(const Program& p, const CacheConfig& icache,
                                const CacheConfig& dcache,
                                const PwcetOptions& options) {
  return PwcetPipeline(p,
                       {std::make_shared<IcacheDomain>(icache),
                        std::make_shared<DcacheDomain>(dcache)},
                       options);
}

TEST(DataRefs, ExtractionMergesSameLine) {
  const Program p = data_program();
  CacheConfig d;  // 16 B lines
  const auto drefs = extract_data_references(p.cfg(), d);
  for (const auto& blk : p.cfg().blocks()) {
    if (blk.data_addresses.size() != 8) continue;
    // 4 scalar loads share one 16 B line; 4 table loads are 16 B apart.
    ASSERT_EQ(drefs[size_t(blk.id)].size(), 5u);
    EXPECT_EQ(drefs[size_t(blk.id)][0].fetches, 4u);
  }
}

TEST(DataRefs, BlocksWithoutLoadsAreEmpty) {
  ProgramBuilder b("noloads");
  b.add_function("main", b.code(16));
  const Program p = b.build(0);
  const auto drefs = extract_data_references(p.cfg(), CacheConfig{});
  for (const auto& refs : drefs) EXPECT_TRUE(refs.empty());
}

TEST(Combined, FaultFreeWcetExceedsInstructionOnly) {
  const Program p = data_program();
  const CacheConfig cache = CacheConfig::paper_default();
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const PwcetPipeline ionly(p, {std::make_shared<IcacheDomain>(cache)},
                            options);
  const PwcetPipeline combined = combined_pipeline(p, cache, cache, options);
  // Data misses only add time.
  EXPECT_GT(combined.fault_free_wcet(), ionly.fault_free_wcet());
}

TEST(Combined, InvariantsMatchSingleCacheAnalysis) {
  const Program p = data_program();
  const CacheConfig cache = CacheConfig::paper_default();
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const PwcetPipeline a = combined_pipeline(p, cache, cache, options);
  const FaultModel faults(1e-4);
  const auto none = a.analyze(faults, Mechanism::kNone);
  const auto rw = a.analyze(faults, Mechanism::kReliableWay);
  const auto srb = a.analyze(faults, Mechanism::kSharedReliableBuffer);
  for (double prob : {1e-9, 1e-15}) {
    EXPECT_GE(none.pwcet(prob), a.fault_free_wcet());
    EXPECT_LE(rw.pwcet(prob), none.pwcet(prob));
    EXPECT_LE(srb.pwcet(prob), none.pwcet(prob));
  }
  // Vanishing pfail recovers the fault-free WCET.
  EXPECT_EQ(a.analyze(FaultModel(0.0), Mechanism::kNone).pwcet(1e-15),
            a.fault_free_wcet());
}

TEST(Combined, MixedDeploymentBracketsUniformOnes) {
  // RW on both >= (RW on I, SRB on D) >= SRB on both ... in pWCET terms the
  // mixed deployment sits between the uniform ones.
  const Program p = data_program();
  const CacheConfig cache = CacheConfig::paper_default();
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const PwcetPipeline a = combined_pipeline(p, cache, cache, options);
  const FaultModel faults(1e-4);
  const Cycles rw_rw =
      a.analyze(faults, Mechanism::kReliableWay).pwcet(1e-15);
  const Cycles srb_srb =
      a.analyze(faults, Mechanism::kSharedReliableBuffer).pwcet(1e-15);
  const Cycles rw_srb =
      a.analyze(faults,
                {Mechanism::kReliableWay, Mechanism::kSharedReliableBuffer})
          .pwcet(1e-15);
  EXPECT_LE(rw_rw, rw_srb);
  EXPECT_LE(rw_srb, srb_srb);
}

TEST(Combined, DataFmmSoundVsSimulation) {
  // Simulated data-side misses on a degraded D-cache never exceed the
  // fault-free data misses bound + FMM. Checked via miss counts (the time
  // model charges data misses only).
  const Program p = data_program();
  CacheConfig d;
  d.sets = 4;
  d.ways = 2;
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const PwcetPipeline a =
      combined_pipeline(p, CacheConfig::paper_default(), d, options);

  Rng rng(0xdcac);
  const auto drefs = extract_data_references(p.cfg(), d);
  for (int trial = 0; trial < 10; ++trial) {
    const BlockPath path = full_iteration_walk(p, rng);
    const FaultMap map = FaultMap::sample(d, 0.3, rng);
    // Simulate the data access stream.
    CacheSimulator sim(d, map, Mechanism::kNone);
    for (BlockId blk : path)
      for (Address addr : p.cfg().block(blk).data_addresses) sim.fetch(addr);
    // Fault-free misses along the same stream.
    CacheSimulator ff(d, FaultMap::none(d), Mechanism::kNone);
    for (BlockId blk : path)
      for (Address addr : p.cfg().block(blk).data_addresses) ff.fetch(addr);
    double fmm_misses = 0.0;
    for (SetIndex s = 0; s < d.sets; ++s)
      fmm_misses += a.fmm(1).none.at(s, map.faulty_count(s));
    EXPECT_LE(static_cast<double>(sim.stats().misses),
              static_cast<double>(ff.stats().misses) + fmm_misses + 1e-6)
        << trial;
  }
}

TEST(Combined, SeparateGeometriesSupported) {
  const Program p = data_program();
  CacheConfig icache = CacheConfig::paper_default();
  CacheConfig dcache;
  dcache.sets = 8;
  dcache.ways = 2;
  dcache.line_bytes = 32;
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const PwcetPipeline a = combined_pipeline(p, icache, dcache, options);
  const auto r = a.analyze(FaultModel(1e-4), Mechanism::kNone);
  EXPECT_GE(r.pwcet(1e-15), a.fault_free_wcet());
  EXPECT_NEAR(r.penalty.total_mass(), 1.0, 1e-6);
}

TEST(Combined, IlpAndTreeEnginesAgree) {
  const Program p = data_program();
  const CacheConfig cache = CacheConfig::paper_default();
  PwcetOptions tree_opts;
  tree_opts.engine = WcetEngine::kTree;
  PwcetOptions ilp_opts;
  ilp_opts.engine = WcetEngine::kIlp;
  const PwcetPipeline via_tree = combined_pipeline(p, cache, cache, tree_opts);
  const PwcetPipeline via_ilp = combined_pipeline(p, cache, cache, ilp_opts);
  EXPECT_EQ(via_tree.fault_free_wcet(), via_ilp.fault_free_wcet());
  const FaultModel faults(1e-4);
  EXPECT_EQ(via_tree.analyze(faults, Mechanism::kNone).pwcet(1e-15),
            via_ilp.analyze(faults, Mechanism::kNone).pwcet(1e-15));
}

}  // namespace
}  // namespace pwcet
