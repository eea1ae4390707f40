// Exhaustive-oracle tests: on deliberately tiny programs and caches,
// enumerate EVERY structurally valid path and EVERY fault pattern, compute
// the exact worst-case behaviour by brute force, and check the analysis
// from above. This removes any reliance on sampling in the soundness
// argument for the small regime.
//
// The RandomOracle suite extends the argument property-based: a seeded
// sweep over randomized small programs x cache geometries x pfail x
// mechanism, asserting that the analytic SPTA pWCET distribution
// stochastically dominates the exhaustive fault-enumeration distribution
// (the TRUE worst case per fault pattern, maximized over every path by
// simulation) at every probability point — for the instruction cache and
// for the combined I+D path.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/l2_domain.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/tlb_domain.hpp"
#include "analysis/writeback_dcache_domain.hpp"
#include "cache/references.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "store/analysis_store.hpp"
#include "support/rng.hpp"
#include "wcet/cost_model.hpp"
#include "wcet/fmm.hpp"
#include "wcet/tree_engine.hpp"
#include "workloads/random_program.hpp"

namespace pwcet {
namespace {

/// Returns every block sequence subtree `t` can execute (all branch
/// combinations x all loop iteration counts in [0, bound]).
std::vector<std::vector<BlockId>> paths_of(const Program& p, TreeId t) {
  const TreeNode& n = p.tree_node(t);
  switch (n.kind) {
    case TreeKind::kLeaf:
      return {{n.block}};
    case TreeKind::kSeq: {
      std::vector<std::vector<BlockId>> acc{{}};
      for (TreeId c : n.children) {
        const auto child = paths_of(p, c);
        std::vector<std::vector<BlockId>> next;
        next.reserve(acc.size() * child.size());
        for (const auto& a : acc)
          for (const auto& b : child) {
            auto merged = a;
            merged.insert(merged.end(), b.begin(), b.end());
            next.push_back(std::move(merged));
          }
        acc = std::move(next);
      }
      return acc;
    }
    case TreeKind::kAlt: {
      std::vector<std::vector<BlockId>> acc;
      for (TreeId c : n.children) {
        auto child = paths_of(p, c);
        acc.insert(acc.end(), child.begin(), child.end());
      }
      return acc;
    }
    case TreeKind::kLoop: {
      const auto header = paths_of(p, n.children[0]);
      const auto body = paths_of(p, n.children[1]);
      std::vector<std::vector<BlockId>> acc;
      // k iterations: header (body header)^k, k in [0, bound].
      std::vector<std::vector<BlockId>> k_paths = header;
      for (std::int64_t k = 0; k <= n.bound; ++k) {
        acc.insert(acc.end(), k_paths.begin(), k_paths.end());
        if (k == n.bound) break;
        std::vector<std::vector<BlockId>> next;
        for (const auto& prefix : k_paths)
          for (const auto& b : body)
            for (const auto& h : header) {
              auto merged = prefix;
              merged.insert(merged.end(), b.begin(), b.end());
              merged.insert(merged.end(), h.begin(), h.end());
              next.push_back(std::move(merged));
            }
        k_paths = std::move(next);
      }
      return acc;
    }
  }
  return {};
}

Program tiny_program() {
  ProgramBuilder b("tiny");
  const StmtId body = b.seq({
      b.code(6),
      b.if_else(2, b.code(4), b.code(7)),
  });
  b.add_function("main", b.seq({
                             b.code(5),
                             b.loop(1, 2, body),
                             b.if_then(1, b.code(3)),
                         }));
  return b.build(0);
}

CacheConfig tiny_cache() {
  CacheConfig c;
  c.sets = 2;
  c.ways = 2;
  c.line_bytes = 8;
  return c;
}

/// All fault maps of a sets x ways cache (one bit per block).
std::vector<FaultMap> all_fault_maps(const CacheConfig& c) {
  const std::uint32_t blocks = c.sets * c.ways;
  std::vector<FaultMap> maps;
  for (std::uint32_t bits = 0; bits < (1u << blocks); ++bits) {
    FaultMap m(c.sets, c.ways);
    for (std::uint32_t i = 0; i < blocks; ++i)
      if (bits & (1u << i)) m.set_faulty(i / c.ways, i % c.ways, true);
    maps.push_back(std::move(m));
  }
  return maps;
}

TEST(ExhaustiveOracle, PathEnumerationMatchesCounts) {
  const Program p = tiny_program();
  const auto paths = paths_of(p, p.tree_root());
  // Loop: k=0 -> 1, k=1 -> 2 arms, k=2 -> 4; total 1+2+4 = 7 loop variants;
  // trailing if_then doubles: 14 paths.
  EXPECT_EQ(paths.size(), 14u);
}

TEST(ExhaustiveOracle, FaultFreeWcetIsExactMaximum) {
  const Program p = tiny_program();
  const CacheConfig c = tiny_cache();
  const auto refs = extract_references(p.cfg(), c);
  const auto cls = classify_fault_free(p.cfg(), refs, c);
  const double wcet = tree_maximize(p, build_time_cost_model(p.cfg(), refs,
                                                             cls, c));
  double exact_worst = 0.0;
  for (const auto& path : paths_of(p, p.tree_root())) {
    const auto trace = fetch_trace(p.cfg(), path);
    const auto stats =
        simulate_trace(c, FaultMap::none(c), Mechanism::kNone, trace);
    exact_worst = std::max(exact_worst, static_cast<double>(stats.cycles));
  }
  EXPECT_GE(wcet, exact_worst);  // soundness
  // Tightness on this tiny program: the analysis is off by at most the
  // cold misses it conservatively re-charges (first-miss accounting).
  EXPECT_LE(wcet, exact_worst * 1.25);
}

TEST(ExhaustiveOracle, PenaltyBoundSoundForAllPathsAndFaultPatterns) {
  const Program p = tiny_program();
  const CacheConfig c = tiny_cache();
  const auto refs = extract_references(p.cfg(), c);
  const auto cls = classify_fault_free(p.cfg(), refs, c);
  const double wcet_ff = tree_maximize(
      p, build_time_cost_model(p.cfg(), refs, cls, c));
  const FmmBundle fmm =
      compute_fmm_bundle(p, c, refs, WcetEngine::kTree, nullptr);

  const auto paths = paths_of(p, p.tree_root());
  for (const FaultMap& map : all_fault_maps(c)) {
    for (const Mechanism mech :
         {Mechanism::kNone, Mechanism::kReliableWay,
          Mechanism::kSharedReliableBuffer}) {
      double misses = 0.0;
      for (SetIndex s = 0; s < c.sets; ++s) {
        std::uint32_t f = map.faulty_count(s);
        if (mech == Mechanism::kReliableWay && map.is_faulty(s, 0)) f -= 1;
        misses += fmm.of(mech).at(s, f);
      }
      const double bound =
          wcet_ff + static_cast<double>(c.miss_penalty) * misses;
      for (const auto& path : paths) {
        const auto trace = fetch_trace(p.cfg(), path);
        const auto stats = simulate_trace(c, map, mech, trace);
        ASSERT_LE(static_cast<double>(stats.cycles), bound + 1e-6)
            << "mech=" << mechanism_name(mech);
      }
    }
  }
}

TEST(ExhaustiveOracle, ExactPenaltyDistributionDominated) {
  // Build the EXACT distribution of the model penalty over all fault maps
  // weighted by their probability, and verify the analyzer's (coalesced)
  // distribution dominates it pointwise.
  const Program p = tiny_program();
  const CacheConfig c = tiny_cache();
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  options.max_distribution_points = 8;  // force visible coalescing
  const PwcetPipeline a(p, {std::make_shared<IcacheDomain>(c)}, options);
  const double pfail = 0.01;
  const FaultModel faults(pfail);
  const auto result = a.analyze(faults, Mechanism::kNone);
  const double pbf = faults.block_failure_probability(c);

  std::vector<ProbabilityAtom> atoms;
  for (const FaultMap& map : all_fault_maps(c)) {
    double prob = 1.0;
    std::uint32_t faulty = 0;
    for (SetIndex s = 0; s < c.sets; ++s) faulty += map.faulty_count(s);
    prob = std::pow(pbf, faulty) *
           std::pow(1 - pbf, c.sets * c.ways - faulty);
    double misses = 0.0;
    for (SetIndex s = 0; s < c.sets; ++s)
      misses += a.fmm(0).none.at(s, map.faulty_count(s));
    atoms.push_back(
        {static_cast<Cycles>(misses) * c.miss_penalty, prob});
  }
  const auto exact = DiscreteDistribution::from_atoms(atoms);
  EXPECT_TRUE(result.penalty.dominates(exact, 1e-9));
}

// ---------------------------------------------------------------------------
// Property-based soundness: randomized programs against the exhaustive
// fault-enumeration oracle.
// ---------------------------------------------------------------------------

/// Generation parameters small enough that full path x fault-map
/// enumeration stays cheap (tiny nesting, tiny loop bounds).
workloads::RandomProgramParams oracle_params(bool with_data_loads) {
  workloads::RandomProgramParams params;
  params.max_depth = 4;
  params.max_children = 3;
  params.max_code_lines = 4;
  params.max_loop_bound = 2;
  params.max_functions = 2;
  params.max_heavy_fetches = 4000;
  if (with_data_loads) {
    params.max_data_loads = 3;
    params.data_pool_words = 16;  // force line sharing in a tiny dcache
  }
  return params;
}

/// Exhaustive path set, bounded on both sides: degenerate programs (a
/// straight line has nothing to maximize over) and path-count explosions
/// are both replaced by the next attempt (deterministically), keeping the
/// sweep cheap while guaranteeing every checked program has real branch /
/// loop structure.
Program oracle_program(std::uint64_t seed,
                       const workloads::RandomProgramParams& params,
                       std::vector<std::vector<BlockId>>& paths) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    Rng rng(Rng::derive_seed(seed, attempt));
    Program p = workloads::random_program(rng, params);
    paths = paths_of(p, p.tree_root());
    if (paths.size() >= 8 && paths.size() <= 512 &&
        heavy_walk_fetch_count(p) >= 50)
      return p;
  }
}

Program oracle_program(std::uint64_t seed, bool with_data_loads,
                       std::vector<std::vector<BlockId>>& paths) {
  return oracle_program(seed, oracle_params(with_data_loads), paths);
}

/// Generation parameters for the store-bearing sweeps (write-back d-cache,
/// TLB, shared L2): loads *and* stores, drawn from tiny pools so streams
/// collide in the tiny secondary caches.
workloads::RandomProgramParams oracle_params_with_stores() {
  workloads::RandomProgramParams params = oracle_params(true);
  params.max_data_stores = 2;
  return params;
}

/// The unified per-path access stream — per block: instruction fetches,
/// then loads, then stores — mirroring extract_unified_references' order
/// (the TLB / shared-L2 reference stream, before line merging).
std::vector<Address> unified_trace(const ControlFlowGraph& cfg,
                                   const std::vector<BlockId>& path) {
  std::vector<Address> out;
  for (const BlockId blk : path) {
    const BasicBlock& b = cfg.block(blk);
    for (std::uint32_t i = 0; i < b.instruction_count; ++i)
      out.push_back(b.first_address + i * kInstructionBytes);
    out.insert(out.end(), b.data_addresses.begin(), b.data_addresses.end());
    out.insert(out.end(), b.store_addresses.begin(),
               b.store_addresses.end());
  }
  return out;
}

/// Per-path data accesses as (address, is_store), loads before stores per
/// block — extract_data_access_references' order.
std::vector<std::pair<Address, bool>> data_access_trace(
    const ControlFlowGraph& cfg, const std::vector<BlockId>& path) {
  std::vector<std::pair<Address, bool>> out;
  for (const BlockId blk : path) {
    const BasicBlock& b = cfg.block(blk);
    for (const Address a : b.data_addresses) out.emplace_back(a, false);
    for (const Address a : b.store_addresses) out.emplace_back(a, true);
  }
  return out;
}

/// P[map] under independent per-block failures with probability pbf. For
/// the RW the hardened way 0 cannot fail: maps touching it have
/// probability zero and are skipped by the caller; the remaining blocks
/// count sets x (ways - 1).
double map_probability(const FaultMap& map, const CacheConfig& c,
                       Mechanism mech, double pbf) {
  std::uint32_t faulty = 0;
  for (SetIndex s = 0; s < c.sets; ++s) faulty += map.faulty_count(s);
  const std::uint32_t blocks =
      mech == Mechanism::kReliableWay ? c.sets * (c.ways - 1)
                                      : c.sets * c.ways;
  return std::pow(pbf, faulty) * std::pow(1.0 - pbf, blocks - faulty);
}

bool touches_hardened_way(const FaultMap& map, const CacheConfig& c) {
  for (SetIndex s = 0; s < c.sets; ++s)
    if (map.is_faulty(s, 0)) return true;
  return false;
}

class RandomOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomOracleTest, IcachePwcetDominatesExhaustiveDistribution) {
  std::vector<std::vector<BlockId>> paths;
  const Program p =
      oracle_program(0x1ce00000 + static_cast<std::uint64_t>(GetParam()),
                     /*with_data_loads=*/false, paths);
  const CacheConfig c = tiny_cache();
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  options.max_distribution_points = 64;  // visible coalescing
  const PwcetPipeline analyzer(p, {std::make_shared<IcacheDomain>(c)},
                               options);

  std::vector<std::vector<Address>> traces;
  traces.reserve(paths.size());
  for (const auto& path : paths)
    traces.push_back(fetch_trace(p.cfg(), path));

  const std::vector<FaultMap> maps = all_fault_maps(c);
  for (const Mechanism mech :
       {Mechanism::kNone, Mechanism::kReliableWay,
        Mechanism::kSharedReliableBuffer}) {
    // TRUE worst case per fault pattern: maximize the simulator over every
    // structurally valid path (pfail-independent; shared across pfails).
    std::vector<double> worst(maps.size(), 0.0);
    for (std::size_t m = 0; m < maps.size(); ++m) {
      if (mech == Mechanism::kReliableWay && touches_hardened_way(maps[m], c))
        continue;  // hardened cells cannot fail: zero-probability pattern
      for (const auto& trace : traces)
        worst[m] = std::max(
            worst[m], static_cast<double>(
                          simulate_trace(c, maps[m], mech, trace).cycles));
    }

    for (const double pfail : {0.01, 0.25}) {
      const FaultModel faults(pfail);
      const double pbf = faults.block_failure_probability(c);
      std::vector<ProbabilityAtom> atoms;
      for (std::size_t m = 0; m < maps.size(); ++m) {
        if (mech == Mechanism::kReliableWay &&
            touches_hardened_way(maps[m], c))
          continue;
        atoms.push_back({static_cast<Cycles>(worst[m]),
                         map_probability(maps[m], c, mech, pbf)});
      }
      const DiscreteDistribution exact =
          DiscreteDistribution::from_atoms(atoms);

      const PwcetResult result = analyzer.analyze(faults, mech);
      const DiscreteDistribution analytic =
          result.penalty.shift(result.fault_free_wcet);
      EXPECT_TRUE(analytic.dominates(exact, 1e-9))
          << "mech=" << mechanism_name(mech) << " pfail=" << pfail
          << " paths=" << paths.size();
    }
  }
}

TEST_P(RandomOracleTest, ReweightedPfailSweepDominatesExhaustive) {
  // The re-weighted path against the oracle wall: a pfail LADDER is
  // analyzed through ONE pipeline instance with a live store, so every
  // point after the first reuses the cached re-weighting scaffold and
  // only re-weights it. Each point must still dominate the exhaustive
  // fault-enumeration distribution — soundness survives the sharing.
  std::vector<std::vector<BlockId>> paths;
  const Program p =
      oracle_program(0x4eb00000 + static_cast<std::uint64_t>(GetParam()),
                     /*with_data_loads=*/false, paths);
  const CacheConfig c = tiny_cache();
  AnalysisStore store;
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  options.max_distribution_points = 64;  // visible coalescing
  options.store = &store;
  const PwcetPipeline pipeline(p, {std::make_shared<IcacheDomain>(c)},
                               options);

  std::vector<std::vector<Address>> traces;
  traces.reserve(paths.size());
  for (const auto& path : paths)
    traces.push_back(fetch_trace(p.cfg(), path));

  const std::vector<FaultMap> maps = all_fault_maps(c);
  for (const Mechanism mech :
       {Mechanism::kNone, Mechanism::kReliableWay,
        Mechanism::kSharedReliableBuffer}) {
    std::vector<double> worst(maps.size(), 0.0);
    for (std::size_t m = 0; m < maps.size(); ++m) {
      if (mech == Mechanism::kReliableWay && touches_hardened_way(maps[m], c))
        continue;
      for (const auto& trace : traces)
        worst[m] = std::max(
            worst[m], static_cast<double>(
                          simulate_trace(c, maps[m], mech, trace).cycles));
    }

    for (const double pfail : {0.001, 0.01, 0.1, 0.25, 0.5}) {
      const FaultModel faults(pfail);
      const double pbf = faults.block_failure_probability(c);
      std::vector<ProbabilityAtom> atoms;
      for (std::size_t m = 0; m < maps.size(); ++m) {
        if (mech == Mechanism::kReliableWay &&
            touches_hardened_way(maps[m], c))
          continue;
        atoms.push_back({static_cast<Cycles>(worst[m]),
                         map_probability(maps[m], c, mech, pbf)});
      }
      const DiscreteDistribution exact =
          DiscreteDistribution::from_atoms(atoms);

      const PwcetResult result = pipeline.analyze(faults, mech);
      const DiscreteDistribution analytic =
          result.penalty.shift(result.fault_free_wcet);
      EXPECT_TRUE(analytic.dominates(exact, 1e-9))
          << "mech=" << mechanism_name(mech) << " pfail=" << pfail
          << " paths=" << paths.size();
    }
  }
}

TEST_P(RandomOracleTest, DcachePwcetDominatesExhaustiveDistribution) {
  std::vector<std::vector<BlockId>> paths;
  const Program p =
      oracle_program(0xdada0000 + static_cast<std::uint64_t>(GetParam()),
                     /*with_data_loads=*/true, paths);
  const CacheConfig ic = tiny_cache();
  CacheConfig dc;
  dc.sets = 2;
  dc.ways = 1;  // 4 fault patterns; RW degenerates to "never fails"
  dc.line_bytes = 8;

  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  options.max_distribution_points = 64;
  const PwcetPipeline analyzer(p,
                               {std::make_shared<IcacheDomain>(ic),
                                std::make_shared<DcacheDomain>(dc)},
                               options);

  // Per-path traces: instruction fetches and data loads.
  std::vector<std::vector<Address>> itraces;
  std::vector<std::vector<Address>> dtraces;
  itraces.reserve(paths.size());
  dtraces.reserve(paths.size());
  for (const auto& path : paths) {
    itraces.push_back(fetch_trace(p.cfg(), path));
    std::vector<Address> loads;
    for (const BlockId blk : path) {
      const auto& data = p.cfg().block(blk).data_addresses;
      loads.insert(loads.end(), data.begin(), data.end());
    }
    dtraces.push_back(std::move(loads));
  }

  const std::vector<FaultMap> imaps = all_fault_maps(ic);
  const std::vector<FaultMap> dmaps = all_fault_maps(dc);

  // The four deployments of the E8 table: (imech, dmech).
  const std::pair<Mechanism, Mechanism> deployments[] = {
      {Mechanism::kNone, Mechanism::kNone},
      {Mechanism::kSharedReliableBuffer, Mechanism::kSharedReliableBuffer},
      {Mechanism::kReliableWay, Mechanism::kSharedReliableBuffer},
      {Mechanism::kReliableWay, Mechanism::kReliableWay},
  };
  const double pfail = 0.05;
  const FaultModel faults(pfail);
  const double ipbf = faults.block_failure_probability(ic);
  const double dpbf = faults.block_failure_probability(dc);

  for (const auto& [imech, dmech] : deployments) {
    // Precompute per (path, map) pieces, then combine: the exact time of a
    // chip on a path is icache cycles + dcache misses * miss penalty
    // (loads execute inside already-charged instruction fetches; only
    // their miss penalties add — analysis/dcache_domain.hpp).
    std::vector<std::vector<double>> icycles(
        paths.size(), std::vector<double>(imaps.size(), 0.0));
    std::vector<std::vector<double>> dpenalty(
        paths.size(), std::vector<double>(dmaps.size(), 0.0));
    for (std::size_t t = 0; t < paths.size(); ++t) {
      for (std::size_t m = 0; m < imaps.size(); ++m) {
        if (imech == Mechanism::kReliableWay &&
            touches_hardened_way(imaps[m], ic))
          continue;
        icycles[t][m] = static_cast<double>(
            simulate_trace(ic, imaps[m], imech, itraces[t]).cycles);
      }
      for (std::size_t m = 0; m < dmaps.size(); ++m) {
        if (dmech == Mechanism::kReliableWay &&
            touches_hardened_way(dmaps[m], dc))
          continue;
        CacheSimulator sim(dc, dmaps[m], dmech);
        for (const Address a : dtraces[t]) sim.fetch(a);
        dpenalty[t][m] = static_cast<double>(sim.stats().misses) *
                         static_cast<double>(dc.miss_penalty);
      }
    }

    std::vector<ProbabilityAtom> atoms;
    for (std::size_t im = 0; im < imaps.size(); ++im) {
      if (imech == Mechanism::kReliableWay &&
          touches_hardened_way(imaps[im], ic))
        continue;
      for (std::size_t dm = 0; dm < dmaps.size(); ++dm) {
        if (dmech == Mechanism::kReliableWay &&
            touches_hardened_way(dmaps[dm], dc))
          continue;
        double worst = 0.0;  // true worst over paths of the SUM
        for (std::size_t t = 0; t < paths.size(); ++t)
          worst = std::max(worst, icycles[t][im] + dpenalty[t][dm]);
        atoms.push_back({static_cast<Cycles>(worst),
                         map_probability(imaps[im], ic, imech, ipbf) *
                             map_probability(dmaps[dm], dc, dmech, dpbf)});
      }
    }
    const DiscreteDistribution exact = DiscreteDistribution::from_atoms(atoms);

    const PwcetResult result = analyzer.analyze(faults, {imech, dmech});
    const DiscreteDistribution analytic =
        result.penalty.shift(result.fault_free_wcet);
    EXPECT_TRUE(analytic.dominates(exact, 1e-9))
        << "imech=" << mechanism_name(imech)
        << " dmech=" << mechanism_name(dmech) << " paths=" << paths.size();
  }
}

// ---------------------------------------------------------------------------
// The three production CacheDomain plugins against the same oracle wall:
// write-back data cache (dirty-eviction write-backs), TLB (page-granular
// unified stream) and shared L2 (lookup-through unified stream), each
// composed with the instruction cache through the generic PwcetPipeline.
// ---------------------------------------------------------------------------

/// The (imech, secondary mech) deployments each secondary-domain sweep
/// checks; on the 2x1 secondary geometries RW degenerates to "never
/// fails", which exercises the zero-probability skip path.
constexpr std::pair<Mechanism, Mechanism> kSecondaryDeployments[] = {
    {Mechanism::kNone, Mechanism::kNone},
    {Mechanism::kSharedReliableBuffer, Mechanism::kSharedReliableBuffer},
    {Mechanism::kReliableWay, Mechanism::kSharedReliableBuffer},
    {Mechanism::kReliableWay, Mechanism::kReliableWay},
};

TEST_P(RandomOracleTest, WritebackDcachePwcetDominatesExhaustive) {
  std::vector<std::vector<BlockId>> paths;
  const Program p =
      oracle_program(0x3b5d0000 + static_cast<std::uint64_t>(GetParam()),
                     oracle_params_with_stores(), paths);
  const CacheConfig ic = tiny_cache();
  CacheConfig dc;
  dc.sets = 2;
  dc.ways = 1;
  dc.line_bytes = 8;
  dc.miss_penalty = 50;  // refill only; the write-back cost rides on top
  const Cycles wb_penalty = 20;

  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  options.max_distribution_points = 64;
  const PwcetPipeline pipeline(
      p,
      {std::make_shared<IcacheDomain>(ic),
       std::make_shared<WritebackDcacheDomain>(dc, wb_penalty)},
      options);

  std::vector<std::vector<Address>> itraces;
  std::vector<std::vector<std::pair<Address, bool>>> dtraces;
  for (const auto& path : paths) {
    itraces.push_back(fetch_trace(p.cfg(), path));
    dtraces.push_back(data_access_trace(p.cfg(), path));
  }

  const std::vector<FaultMap> imaps = all_fault_maps(ic);
  const std::vector<FaultMap> dmaps = all_fault_maps(dc);
  const double pfail = 0.05;
  const FaultModel faults(pfail);
  const double ipbf = faults.block_failure_probability(ic);
  const double dpbf = faults.block_failure_probability(dc);

  for (const auto& [imech, dmech] : kSecondaryDeployments) {
    std::vector<std::vector<double>> icycles(
        paths.size(), std::vector<double>(imaps.size(), 0.0));
    std::vector<std::vector<double>> dpenalty(
        paths.size(), std::vector<double>(dmaps.size(), 0.0));
    for (std::size_t t = 0; t < paths.size(); ++t) {
      for (std::size_t m = 0; m < imaps.size(); ++m) {
        if (imech == Mechanism::kReliableWay &&
            touches_hardened_way(imaps[m], ic))
          continue;
        icycles[t][m] = static_cast<double>(
            simulate_trace(ic, imaps[m], imech, itraces[t]).cycles);
      }
      for (std::size_t m = 0; m < dmaps.size(); ++m) {
        if (dmech == Mechanism::kReliableWay &&
            touches_hardened_way(dmaps[m], dc))
          continue;
        // TRUE write-back cost: misses pay the refill, dirty evictions
        // additionally pay the write-back — strictly below the model's
        // effective (refill + wb) per miss whenever a victim is clean.
        WritebackCacheSimulator sim(dc, dmaps[m], dmech);
        for (const auto& [a, is_store] : dtraces[t]) sim.access(a, is_store);
        dpenalty[t][m] =
            static_cast<double>(sim.stats().misses) *
                static_cast<double>(dc.miss_penalty) +
            static_cast<double>(sim.stats().writebacks) *
                static_cast<double>(wb_penalty);
      }
    }

    std::vector<ProbabilityAtom> atoms;
    for (std::size_t im = 0; im < imaps.size(); ++im) {
      if (imech == Mechanism::kReliableWay &&
          touches_hardened_way(imaps[im], ic))
        continue;
      for (std::size_t dm = 0; dm < dmaps.size(); ++dm) {
        if (dmech == Mechanism::kReliableWay &&
            touches_hardened_way(dmaps[dm], dc))
          continue;
        double worst = 0.0;
        for (std::size_t t = 0; t < paths.size(); ++t)
          worst = std::max(worst, icycles[t][im] + dpenalty[t][dm]);
        atoms.push_back({static_cast<Cycles>(worst),
                         map_probability(imaps[im], ic, imech, ipbf) *
                             map_probability(dmaps[dm], dc, dmech, dpbf)});
      }
    }
    const DiscreteDistribution exact =
        DiscreteDistribution::from_atoms(atoms);

    const PwcetResult result = pipeline.analyze(faults, {imech, dmech});
    const DiscreteDistribution analytic =
        result.penalty.shift(result.fault_free_wcet);
    EXPECT_TRUE(analytic.dominates(exact, 1e-9))
        << "imech=" << mechanism_name(imech)
        << " dmech=" << mechanism_name(dmech) << " paths=" << paths.size();
  }
}

TEST_P(RandomOracleTest, TlbPwcetDominatesExhaustive) {
  std::vector<std::vector<BlockId>> paths;
  const Program p =
      oracle_program(0x71b00000 + static_cast<std::uint64_t>(GetParam()),
                     oracle_params_with_stores(), paths);
  const CacheConfig ic = tiny_cache();
  CacheConfig tlb;  // 2 entries of 1 way, 8-byte pages, hits folded away
  tlb.sets = 2;
  tlb.ways = 1;
  tlb.line_bytes = 8;
  tlb.hit_latency = 0;
  tlb.miss_penalty = 25;

  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  options.max_distribution_points = 64;
  const PwcetPipeline pipeline(p,
                               {std::make_shared<IcacheDomain>(ic),
                                std::make_shared<TlbDomain>(tlb)},
                               options);

  std::vector<std::vector<Address>> itraces;
  std::vector<std::vector<Address>> utraces;
  for (const auto& path : paths) {
    itraces.push_back(fetch_trace(p.cfg(), path));
    utraces.push_back(unified_trace(p.cfg(), path));
  }

  const std::vector<FaultMap> imaps = all_fault_maps(ic);
  const std::vector<FaultMap> tmaps = all_fault_maps(tlb);
  const double pfail = 0.05;
  const FaultModel faults(pfail);
  const double ipbf = faults.block_failure_probability(ic);
  const double tpbf = faults.block_failure_probability(tlb);

  for (const auto& [imech, tmech] : kSecondaryDeployments) {
    std::vector<std::vector<double>> icycles(
        paths.size(), std::vector<double>(imaps.size(), 0.0));
    std::vector<std::vector<double>> tpenalty(
        paths.size(), std::vector<double>(tmaps.size(), 0.0));
    for (std::size_t t = 0; t < paths.size(); ++t) {
      for (std::size_t m = 0; m < imaps.size(); ++m) {
        if (imech == Mechanism::kReliableWay &&
            touches_hardened_way(imaps[m], ic))
          continue;
        icycles[t][m] = static_cast<double>(
            simulate_trace(ic, imaps[m], imech, itraces[t]).cycles);
      }
      for (std::size_t m = 0; m < tmaps.size(); ++m) {
        if (tmech == Mechanism::kReliableWay &&
            touches_hardened_way(tmaps[m], tlb))
          continue;
        // TRUE TLB cost: a page walk per translation miss over the
        // unified fetch/load/store stream; hits are free (folded into
        // the fetch latencies the icache domain already charges).
        CacheSimulator sim(tlb, tmaps[m], tmech);
        for (const Address a : utraces[t]) sim.fetch(a);
        tpenalty[t][m] = static_cast<double>(sim.stats().misses) *
                         static_cast<double>(tlb.miss_penalty);
      }
    }

    std::vector<ProbabilityAtom> atoms;
    for (std::size_t im = 0; im < imaps.size(); ++im) {
      if (imech == Mechanism::kReliableWay &&
          touches_hardened_way(imaps[im], ic))
        continue;
      for (std::size_t tm = 0; tm < tmaps.size(); ++tm) {
        if (tmech == Mechanism::kReliableWay &&
            touches_hardened_way(tmaps[tm], tlb))
          continue;
        double worst = 0.0;
        for (std::size_t t = 0; t < paths.size(); ++t)
          worst = std::max(worst, icycles[t][im] + tpenalty[t][tm]);
        atoms.push_back({static_cast<Cycles>(worst),
                         map_probability(imaps[im], ic, imech, ipbf) *
                             map_probability(tmaps[tm], tlb, tmech, tpbf)});
      }
    }
    const DiscreteDistribution exact =
        DiscreteDistribution::from_atoms(atoms);

    const PwcetResult result = pipeline.analyze(faults, {imech, tmech});
    const DiscreteDistribution analytic =
        result.penalty.shift(result.fault_free_wcet);
    EXPECT_TRUE(analytic.dominates(exact, 1e-9))
        << "imech=" << mechanism_name(imech)
        << " tmech=" << mechanism_name(tmech) << " paths=" << paths.size();
  }
}

TEST_P(RandomOracleTest, SharedL2PwcetDominatesExhaustive) {
  std::vector<std::vector<BlockId>> paths;
  const Program p =
      oracle_program(0x12000000 + static_cast<std::uint64_t>(GetParam()),
                     oracle_params_with_stores(), paths);
  const CacheConfig ic = tiny_cache();
  CacheConfig l2;  // lookup-through: every reference probes it
  l2.sets = 2;
  l2.ways = 1;
  l2.line_bytes = 8;
  l2.hit_latency = 0;  // L2 hit latency rides in the L1 costs
  l2.miss_penalty = 40;

  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  options.max_distribution_points = 64;
  const PwcetPipeline pipeline(p,
                               {std::make_shared<IcacheDomain>(ic),
                                std::make_shared<L2Domain>(l2)},
                               options);

  std::vector<std::vector<Address>> itraces;
  std::vector<std::vector<Address>> utraces;
  for (const auto& path : paths) {
    itraces.push_back(fetch_trace(p.cfg(), path));
    utraces.push_back(unified_trace(p.cfg(), path));
  }

  const std::vector<FaultMap> imaps = all_fault_maps(ic);
  const std::vector<FaultMap> lmaps = all_fault_maps(l2);
  const double pfail = 0.05;
  const FaultModel faults(pfail);
  const double ipbf = faults.block_failure_probability(ic);
  const double lpbf = faults.block_failure_probability(l2);

  for (const auto& [imech, lmech] : kSecondaryDeployments) {
    std::vector<std::vector<double>> icycles(
        paths.size(), std::vector<double>(imaps.size(), 0.0));
    std::vector<std::vector<double>> lpenalty(
        paths.size(), std::vector<double>(lmaps.size(), 0.0));
    for (std::size_t t = 0; t < paths.size(); ++t) {
      for (std::size_t m = 0; m < imaps.size(); ++m) {
        if (imech == Mechanism::kReliableWay &&
            touches_hardened_way(imaps[m], ic))
          continue;
        icycles[t][m] = static_cast<double>(
            simulate_trace(ic, imaps[m], imech, itraces[t]).cycles);
      }
      for (std::size_t m = 0; m < lmaps.size(); ++m) {
        if (lmech == Mechanism::kReliableWay &&
            touches_hardened_way(lmaps[m], l2))
          continue;
        CacheSimulator sim(l2, lmaps[m], lmech);
        for (const Address a : utraces[t]) sim.fetch(a);
        lpenalty[t][m] = static_cast<double>(sim.stats().misses) *
                         static_cast<double>(l2.miss_penalty);
      }
    }

    std::vector<ProbabilityAtom> atoms;
    for (std::size_t im = 0; im < imaps.size(); ++im) {
      if (imech == Mechanism::kReliableWay &&
          touches_hardened_way(imaps[im], ic))
        continue;
      for (std::size_t lm = 0; lm < lmaps.size(); ++lm) {
        if (lmech == Mechanism::kReliableWay &&
            touches_hardened_way(lmaps[lm], l2))
          continue;
        double worst = 0.0;
        for (std::size_t t = 0; t < paths.size(); ++t)
          worst = std::max(worst, icycles[t][im] + lpenalty[t][lm]);
        atoms.push_back({static_cast<Cycles>(worst),
                         map_probability(imaps[im], ic, imech, ipbf) *
                             map_probability(lmaps[lm], l2, lmech, lpbf)});
      }
    }
    const DiscreteDistribution exact =
        DiscreteDistribution::from_atoms(atoms);

    const PwcetResult result = pipeline.analyze(faults, {imech, lmech});
    const DiscreteDistribution analytic =
        result.penalty.shift(result.fault_free_wcet);
    EXPECT_TRUE(analytic.dominates(exact, 1e-9))
        << "imech=" << mechanism_name(imech)
        << " lmech=" << mechanism_name(lmech) << " paths=" << paths.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOracleTest, ::testing::Range(0, 12));

// Three-domain composition: icache x write-back dcache x shared L2, the
// full fixed-shape cross-domain convolution against a 3-way exhaustive
// fault product. Fewer seeds — each checks 16 x 4 x 4 = 256 fault
// combinations maximized over every path.
class ComposedOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ComposedOracleTest, TriplePwcetDominatesExhaustive) {
  std::vector<std::vector<BlockId>> paths;
  const Program p =
      oracle_program(0xc0de0000 + static_cast<std::uint64_t>(GetParam()),
                     oracle_params_with_stores(), paths);
  const CacheConfig ic = tiny_cache();
  CacheConfig dc;
  dc.sets = 2;
  dc.ways = 1;
  dc.line_bytes = 8;
  dc.miss_penalty = 50;
  const Cycles wb_penalty = 20;
  CacheConfig l2;
  l2.sets = 2;
  l2.ways = 1;
  l2.line_bytes = 8;
  l2.hit_latency = 0;
  l2.miss_penalty = 40;

  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  options.max_distribution_points = 64;
  const PwcetPipeline pipeline(
      p,
      {std::make_shared<IcacheDomain>(ic),
       std::make_shared<WritebackDcacheDomain>(dc, wb_penalty),
       std::make_shared<L2Domain>(l2)},
      options);

  std::vector<std::vector<Address>> itraces;
  std::vector<std::vector<std::pair<Address, bool>>> dtraces;
  std::vector<std::vector<Address>> utraces;
  for (const auto& path : paths) {
    itraces.push_back(fetch_trace(p.cfg(), path));
    dtraces.push_back(data_access_trace(p.cfg(), path));
    utraces.push_back(unified_trace(p.cfg(), path));
  }

  const std::vector<FaultMap> imaps = all_fault_maps(ic);
  const std::vector<FaultMap> dmaps = all_fault_maps(dc);
  const std::vector<FaultMap> lmaps = all_fault_maps(l2);
  const double pfail = 0.05;
  const FaultModel faults(pfail);
  const double ipbf = faults.block_failure_probability(ic);
  const double dpbf = faults.block_failure_probability(dc);
  const double lpbf = faults.block_failure_probability(l2);

  const std::array<Mechanism, 3> deployments[] = {
      {Mechanism::kNone, Mechanism::kNone, Mechanism::kNone},
      {Mechanism::kSharedReliableBuffer, Mechanism::kSharedReliableBuffer,
       Mechanism::kSharedReliableBuffer},
  };
  for (const auto& [imech, dmech, lmech] : deployments) {
    std::vector<std::vector<double>> icycles(
        paths.size(), std::vector<double>(imaps.size(), 0.0));
    std::vector<std::vector<double>> dpenalty(
        paths.size(), std::vector<double>(dmaps.size(), 0.0));
    std::vector<std::vector<double>> lpenalty(
        paths.size(), std::vector<double>(lmaps.size(), 0.0));
    for (std::size_t t = 0; t < paths.size(); ++t) {
      for (std::size_t m = 0; m < imaps.size(); ++m)
        icycles[t][m] = static_cast<double>(
            simulate_trace(ic, imaps[m], imech, itraces[t]).cycles);
      for (std::size_t m = 0; m < dmaps.size(); ++m) {
        WritebackCacheSimulator sim(dc, dmaps[m], dmech);
        for (const auto& [a, is_store] : dtraces[t]) sim.access(a, is_store);
        dpenalty[t][m] =
            static_cast<double>(sim.stats().misses) *
                static_cast<double>(dc.miss_penalty) +
            static_cast<double>(sim.stats().writebacks) *
                static_cast<double>(wb_penalty);
      }
      for (std::size_t m = 0; m < lmaps.size(); ++m) {
        CacheSimulator sim(l2, lmaps[m], lmech);
        for (const Address a : utraces[t]) sim.fetch(a);
        lpenalty[t][m] = static_cast<double>(sim.stats().misses) *
                         static_cast<double>(l2.miss_penalty);
      }
    }

    std::vector<ProbabilityAtom> atoms;
    for (std::size_t im = 0; im < imaps.size(); ++im)
      for (std::size_t dm = 0; dm < dmaps.size(); ++dm)
        for (std::size_t lm = 0; lm < lmaps.size(); ++lm) {
          double worst = 0.0;
          for (std::size_t t = 0; t < paths.size(); ++t)
            worst = std::max(
                worst, icycles[t][im] + dpenalty[t][dm] + lpenalty[t][lm]);
          atoms.push_back(
              {static_cast<Cycles>(worst),
               map_probability(imaps[im], ic, imech, ipbf) *
                   map_probability(dmaps[dm], dc, dmech, dpbf) *
                   map_probability(lmaps[lm], l2, lmech, lpbf)});
        }
    const DiscreteDistribution exact =
        DiscreteDistribution::from_atoms(atoms);

    const PwcetResult result =
        pipeline.analyze(faults, {imech, dmech, lmech});
    const DiscreteDistribution analytic =
        result.penalty.shift(result.fault_free_wcet);
    EXPECT_TRUE(analytic.dominates(exact, 1e-9))
        << "imech=" << mechanism_name(imech)
        << " dmech=" << mechanism_name(dmech)
        << " lmech=" << mechanism_name(lmech) << " paths=" << paths.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComposedOracleTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace pwcet
