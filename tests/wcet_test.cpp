// Tests for the WCET engines: IPET vs the loop-tree engine, cost models,
// FMM properties, and the end-to-end soundness of the fault-penalty bound
// against the cycle-accurate simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "fault/fault_map.hpp"
#include "icache/set_analysis.hpp"
#include "icache/srb_analysis.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "support/rng.hpp"
#include "wcet/cost_model.hpp"
#include "wcet/fmm.hpp"
#include "wcet/ipet.hpp"
#include "wcet/tree_engine.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

CostModel unit_block_cost(const Program& p) {
  CostModel m = CostModel::zero(p.cfg());
  for (const auto& blk : p.cfg().blocks())
    m.block_cost[size_t(blk.id)] = blk.instruction_count;
  return m;
}

TEST(Tree, StraightLineCost) {
  ProgramBuilder b("p");
  b.add_function("main", b.seq({b.code(3), b.code(5)}));
  const Program p = b.build(0);
  EXPECT_DOUBLE_EQ(tree_maximize(p, unit_block_cost(p)), 8.0);
}

TEST(Tree, BranchTakesMax) {
  ProgramBuilder b("p");
  b.add_function("main", b.if_else(2, b.code(3), b.code(7)));
  const Program p = b.build(0);
  EXPECT_DOUBLE_EQ(tree_maximize(p, unit_block_cost(p)), 2.0 + 7.0);
}

TEST(Tree, LoopMultipliesBody) {
  ProgramBuilder b("p");
  b.add_function("main", b.loop(2, 10, b.code(5)));
  const Program p = b.build(0);
  // Header (2 instr) runs 11 times, body (5 instr) 10 times.
  EXPECT_DOUBLE_EQ(tree_maximize(p, unit_block_cost(p)), 11 * 2 + 10 * 5);
}

TEST(Tree, NestedLoopsMultiply) {
  ProgramBuilder b("p");
  b.add_function("main", b.loop(1, 3, b.loop(1, 4, b.code(2))));
  const Program p = b.build(0);
  // Outer header 4x; inner entered 3x: each entry header 5x, body 4x.
  EXPECT_DOUBLE_EQ(tree_maximize(p, unit_block_cost(p)),
                   4 * 1 + 3 * (5 * 1 + 4 * 2));
}

TEST(Tree, LoopEntryCostOncePerEntry) {
  ProgramBuilder b("p");
  b.add_function("main", b.loop(1, 3, b.loop(1, 4, b.code(2))));
  const Program p = b.build(0);
  CostModel m = unit_block_cost(p);
  // Inner loop id is 1 (outer registered first).
  m.loop_entry_cost[1] = 100.0;
  // Inner loop entered 3 times.
  EXPECT_DOUBLE_EQ(tree_maximize(p, m),
                   4 * 1 + 3 * (5 * 1 + 4 * 2) + 3 * 100.0);
}

TEST(Tree, RootEntryCostOnce) {
  ProgramBuilder b("p");
  b.add_function("main", b.code(4));
  const Program p = b.build(0);
  CostModel m = unit_block_cost(p);
  m.root_entry_cost = 42.0;
  EXPECT_DOUBLE_EQ(tree_maximize(p, m), 46.0);
}

TEST(Tree, NegativeBodySkipsLoop) {
  // Delta models can make a loop body net-negative; the maximizing path
  // then runs zero iterations.
  ProgramBuilder b("p");
  b.add_function("main", b.loop(1, 10, b.code(4)));
  const Program p = b.build(0);
  CostModel m = CostModel::zero(p.cfg());
  for (const auto& blk : p.cfg().blocks())
    if (blk.instruction_count == 4) m.block_cost[size_t(blk.id)] = -3.0;
  // Only the header contributes 0; body would subtract.
  EXPECT_DOUBLE_EQ(tree_maximize(p, m), 0.0);
  // Worst path contains no body block.
  const auto path = tree_worst_path(p, m);
  for (BlockId blk : path)
    EXPECT_NE(p.cfg().block(blk).instruction_count, 4u);
}

TEST(Tree, WorstPathCostMatchesMaximum) {
  // Evaluating the emitted path under the model reproduces tree_maximize.
  const Program p = workloads::build("cnt");
  CostModel m = unit_block_cost(p);
  const double best = tree_maximize(p, m);
  double path_cost = m.root_entry_cost;
  for (BlockId blk : tree_worst_path(p, m))
    path_cost += m.block_cost[size_t(blk)];
  // cnt's model has no loop-entry costs, so the leaf sum is the whole cost.
  EXPECT_DOUBLE_EQ(path_cost, best);
}

TEST(Ipet, MatchesHandComputedLoop) {
  ProgramBuilder b("p");
  b.add_function("main", b.loop(2, 10, b.code(5)));
  const Program p = b.build(0);
  IpetCalculator ipet(p);
  EXPECT_NEAR(ipet.maximize(unit_block_cost(p)), 11 * 2 + 10 * 5, 1e-6);
}

TEST(Ipet, BlockCountsRespectStructure) {
  ProgramBuilder b("p");
  b.add_function("main", b.loop(1, 6, b.if_else(1, b.code(2), b.code(9))));
  const Program p = b.build(0);
  IpetCalculator ipet(p);
  // The header runs 7 times; the condition and the heavy arm run 6 times
  // each and the light arm never (taking it would give 7 + 6 x 3 = 25).
  EXPECT_NEAR(ipet.maximize(unit_block_cost(p)), 7 * 1 + 6 * (1 + 9), 1e-6);
}

// Engine equivalence: the IPET LP relaxation and the structural tree engine
// agree on every workload, for the fault-free time model — evidence both
// of tree-engine correctness and of the relaxation's integrality on these
// flow systems.
class EngineEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineEquivalenceTest, IpetEqualsTreeOnTimeModel) {
  const Program p = workloads::build(GetParam());
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  const auto cls = classify_fault_free(profile);
  const CostModel m = build_time_cost_model(p.cfg(), refs, cls, c);
  IpetCalculator ipet(p);
  const double via_ipet = ipet.maximize(m);
  const double via_tree = tree_maximize(p, m);
  EXPECT_NEAR(via_ipet, via_tree, 1e-6 * std::max(1.0, via_tree));
}

TEST_P(EngineEquivalenceTest, FmmEnginesAgree) {
  const Program p = workloads::build(GetParam());
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  IpetCalculator ipet(p);
  const FmmBundle via_ilp =
      compute_fmm_bundle(p, c, refs, profile, WcetEngine::kIlp, &ipet);
  const FmmBundle via_tree =
      compute_fmm_bundle(p, c, refs, profile, WcetEngine::kTree, nullptr);
  for (SetIndex s = 0; s < c.sets; ++s) {
    for (std::uint32_t f = 0; f <= c.ways; ++f) {
      EXPECT_NEAR(via_ilp.none.at(s, f), via_tree.none.at(s, f), 1e-5)
          << "none s=" << s << " f=" << f;
      EXPECT_NEAR(via_ilp.srb.at(s, f), via_tree.srb.at(s, f), 1e-5)
          << "srb s=" << s << " f=" << f;
      EXPECT_NEAR(via_ilp.rw.at(s, f), via_tree.rw.at(s, f), 1e-5)
          << "rw s=" << s << " f=" << f;
    }
  }
}

/// Non-dedup reference for compute_fmm_bundle, built from public pieces:
/// every used set computes its own three rows — f = 1..W-1 at line
/// granularity, each from a SetAnalysis run directly at W - f rather than
/// from the age profile, then the unprotected and the SRB full-fault
/// columns — clamped at zero and made monotone in f. Sets are visited in
/// index order and each set's objectives in that order, so with the ILP
/// engine the one shared IpetCalculator sees exactly the maximize()
/// sequence the library's dedup replay must reproduce.
FmmBundle fmm_bundle_without_dedup(const Program& p, const CacheConfig& c,
                                   const ReferenceMap& refs,
                                   WcetEngine engine) {
  const ControlFlowGraph& cfg = p.cfg();
  const SrbHitMap srb_hits = analyze_srb(cfg, refs);
  std::vector<bool> used(c.sets, false);
  for (const auto& block_refs : refs)
    for (const LineRef& r : block_refs) used[r.set] = true;
  IpetCalculator ipet(p);
  auto maximize = [&](const CostModel& model) {
    return std::max(0.0, engine == WcetEngine::kIlp
                             ? ipet.maximize(model)
                             : tree_maximize(p, model));
  };
  auto make_monotone = [](std::vector<double>& row, std::uint32_t last) {
    for (std::uint32_t f = 2; f <= last; ++f)
      row[f] = std::max(row[f], row[f - 1]);
  };

  FmmBundle bundle;
  for (SetIndex s = 0; s < c.sets; ++s) {
    std::vector<double> none(c.ways + 1, 0.0), rw = none, srb = none;
    if (used[s]) {
      const SetAnalysis fault_free(cfg, refs, s, c.ways);
      for (std::uint32_t f = 1; f < c.ways; ++f) {
        const SetAnalysis degraded(cfg, refs, s, c.ways - f);
        none[f] = rw[f] = srb[f] = maximize(build_delta_miss_model(
            cfg, refs, s, fault_free.classifications(),
            &degraded.classifications(), FullFaultSemantics::kUnprotected,
            nullptr));
      }
      none[c.ways] = maximize(build_delta_miss_model(
          cfg, refs, s, fault_free.classifications(), nullptr,
          FullFaultSemantics::kUnprotected, nullptr));
      srb[c.ways] = maximize(build_delta_miss_model(
          cfg, refs, s, fault_free.classifications(), nullptr,
          FullFaultSemantics::kSrb, &srb_hits));
      make_monotone(none, c.ways);
      make_monotone(rw, c.ways - 1);
      make_monotone(srb, c.ways);
    }
    bundle.none.misses.push_back(std::move(none));
    bundle.rw.misses.push_back(std::move(rw));
    bundle.srb.misses.push_back(std::move(srb));
  }
  return bundle;
}

// Reference equivalence for the FMM signature dedup (wcet/fmm.cpp): sets
// sharing a canonical reference signature reuse one computation, where
// the reference above computes every used set on its own. The bundles
// must match bitwise for both engines — the dedup is a pure strength
// reduction, not an approximation, and in particular must not perturb
// the ILP engine's warm-started simplex trajectory.
TEST_P(EngineEquivalenceTest, FmmSignatureDedupIsBitIdentical) {
  const Program p = workloads::build(GetParam());
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  for (const WcetEngine engine : {WcetEngine::kTree, WcetEngine::kIlp}) {
    const FmmBundle reference = fmm_bundle_without_dedup(p, c, refs, engine);
    IpetCalculator ipet_dedup(p);
    const FmmBundle dedup = compute_fmm_bundle(
        p, c, refs, profile, engine,
        engine == WcetEngine::kIlp ? &ipet_dedup : nullptr);
    for (SetIndex s = 0; s < c.sets; ++s)
      for (std::uint32_t f = 0; f <= c.ways; ++f) {
        EXPECT_EQ(reference.none.at(s, f), dedup.none.at(s, f))
            << "none s=" << s << " f=" << f;
        EXPECT_EQ(reference.rw.at(s, f), dedup.rw.at(s, f))
            << "rw s=" << s << " f=" << f;
        EXPECT_EQ(reference.srb.at(s, f), dedup.srb.at(s, f))
            << "srb s=" << s << " f=" << f;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EngineEquivalenceTest,
                         ::testing::ValuesIn(workloads::names()),
                         [](const auto& info) { return info.param; });

TEST(Fmm, RowsAreMonotoneAndNonNegative) {
  const Program p = workloads::build("crc");
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  const FmmBundle fmm =
      compute_fmm_bundle(p, c, refs, profile, WcetEngine::kTree, nullptr);
  for (SetIndex s = 0; s < c.sets; ++s) {
    for (std::uint32_t f = 1; f <= c.ways; ++f) {
      EXPECT_GE(fmm.none.at(s, f), 0.0);
      if (f > 1) {
        EXPECT_GE(fmm.none.at(s, f), fmm.none.at(s, f - 1));
      }
    }
  }
}

TEST(Fmm, MechanismsDifferOnlyInFullColumn) {
  const Program p = workloads::build("fdct");
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  const FmmBundle fmm =
      compute_fmm_bundle(p, c, refs, profile, WcetEngine::kTree, nullptr);
  for (SetIndex s = 0; s < c.sets; ++s) {
    for (std::uint32_t f = 1; f < c.ways; ++f) {
      EXPECT_DOUBLE_EQ(fmm.none.at(s, f), fmm.srb.at(s, f));
      EXPECT_DOUBLE_EQ(fmm.none.at(s, f), fmm.rw.at(s, f));
    }
    // SRB can only reduce the full-failure column; RW has none.
    EXPECT_LE(fmm.srb.at(s, c.ways), fmm.none.at(s, c.ways));
    EXPECT_DOUBLE_EQ(fmm.rw.at(s, c.ways), 0.0);
  }
}

TEST(Fmm, UnreferencedSetHasZeroRow) {
  // A program touching only lines 0..3 leaves sets 4..15 untouched.
  ProgramBuilder b("p");
  b.add_function("main", b.code(16));  // 4 lines -> sets 0..3
  const Program p = b.build(0);
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  const FmmBundle fmm =
      compute_fmm_bundle(p, c, refs, profile, WcetEngine::kTree, nullptr);
  for (SetIndex s = 4; s < c.sets; ++s)
    for (std::uint32_t f = 0; f <= c.ways; ++f)
      EXPECT_DOUBLE_EQ(fmm.none.at(s, f), 0.0) << "s=" << s;
}

TEST(Fmm, FullFailureCountsEveryFetch) {
  // Straight-line code, one 4-fetch line per set reference: fault-free the
  // line misses once (cold); fully faulty, all 4 fetches miss -> delta 3.
  ProgramBuilder b("p");
  b.add_function("main", b.code(4));  // one line, set 0
  const Program p = b.build(0);
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  const FmmBundle fmm =
      compute_fmm_bundle(p, c, refs, profile, WcetEngine::kTree, nullptr);
  EXPECT_DOUBLE_EQ(fmm.none.at(0, c.ways), 3.0);
  // Partial faults leave a 1-line set unaffected.
  EXPECT_DOUBLE_EQ(fmm.none.at(0, 1), 0.0);
  // The SRB cannot help a single cold reference (nothing precedes it).
  EXPECT_DOUBLE_EQ(fmm.srb.at(0, c.ways), 0.0);
  // Wait: cold ref was a miss fault-free too; SRB serves the line with one
  // miss, so delta = 1 - 1 = 0. Checked above.
}

// The core soundness theorem of the reproduction: for any concrete fault
// map F and any structurally valid path, the simulated execution time is
// bounded by  WCET_ff + miss_penalty * sum_s FMM[mech][s][faults(F, s)].
class PenaltySoundnessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PenaltySoundnessTest, SimulationNeverExceedsBound) {
  const Program p = workloads::build(GetParam());
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  const auto cls = classify_fault_free(profile);
  const CostModel time_model = build_time_cost_model(p.cfg(), refs, cls, c);
  const double wcet_ff = tree_maximize(p, time_model);
  const FmmBundle fmm =
      compute_fmm_bundle(p, c, refs, profile, WcetEngine::kTree, nullptr);

  Rng rng(83);
  const double heavy_fetches = static_cast<double>(heavy_walk_fetch_count(p));
  const int path_trials = heavy_fetches > 200000 ? 2 : 4;
  for (int trial = 0; trial < path_trials; ++trial) {
    // Mix of random and adversarial paths.
    const BlockPath path =
        (trial == 0) ? heavy_walk(p) : random_walk(p, rng);
    const auto trace = fetch_trace(p.cfg(), path);
    for (int fault_trial = 0; fault_trial < 4; ++fault_trial) {
      // Heavy fault rates stress the bound harder than realistic ones.
      const double pbf = (fault_trial + 1) * 0.2;
      const FaultMap map = FaultMap::sample(c, pbf, rng);
      for (const Mechanism mech :
           {Mechanism::kNone, Mechanism::kReliableWay,
            Mechanism::kSharedReliableBuffer}) {
        const auto stats = simulate_trace(c, map, mech, trace);
        double penalty_misses = 0.0;
        for (SetIndex s = 0; s < c.sets; ++s) {
          std::uint32_t f = map.faulty_count(s);
          if (mech == Mechanism::kReliableWay && map.is_faulty(s, 0)) {
            f -= 1;  // the hardened way masks its fault (Eq. 3 regime)
          }
          penalty_misses += fmm.of(mech).at(s, f);
        }
        const double bound =
            wcet_ff + static_cast<double>(c.miss_penalty) * penalty_misses;
        EXPECT_LE(static_cast<double>(stats.cycles), bound + 1e-6)
            << GetParam() << " mech=" << mechanism_name(mech)
            << " trial=" << trial << " faults=" << fault_trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PenaltySoundnessTest,
    ::testing::Values("fibcall", "bs", "prime", "matmult", "crc", "cnt",
                      "statemate", "ud", "fft", "janne_complex"),
    [](const auto& info) { return info.param; });

}  // namespace
}  // namespace pwcet
