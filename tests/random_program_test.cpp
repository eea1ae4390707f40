// Property-based tests over randomly generated structured programs: the
// strongest evidence that the engines and the soundness argument are not
// overfitted to the 25 hand-written workloads.
#include <gtest/gtest.h>

#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "cfg/dominators.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "support/rng.hpp"
#include "wcet/cost_model.hpp"
#include "wcet/fmm.hpp"
#include "wcet/ipet.hpp"
#include "wcet/tree_engine.hpp"
#include "workloads/random_program.hpp"

namespace pwcet {
namespace {

class RandomProgramTest : public ::testing::TestWithParam<int> {
 protected:
  Program make_program() {
    Rng rng(0xbeef0000 + static_cast<std::uint64_t>(GetParam()));
    return workloads::random_program(rng);
  }
};

TEST_P(RandomProgramTest, CfgIsWellFormed) {
  const Program p = make_program();
  p.cfg().validate();
  const auto order = p.cfg().reverse_post_order();
  EXPECT_EQ(order.size(), p.cfg().block_count());
}

TEST_P(RandomProgramTest, DetectedLoopsMatchRegistered) {
  const Program p = make_program();
  const auto detected = detect_natural_loops(p.cfg());
  // Loops with bound 0 still form back edges structurally, so counts match.
  EXPECT_EQ(detected.size(), p.cfg().loops().size());
  for (const DetectedLoop& dl : detected) {
    bool found = false;
    for (const LoopInfo& li : p.cfg().loops()) found |= (li.header == dl.header);
    EXPECT_TRUE(found);
  }
}

TEST_P(RandomProgramTest, IpetEqualsTreeOnTimeModel) {
  const Program p = make_program();
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  const auto cls = classify_fault_free(profile);
  const CostModel m = build_time_cost_model(p.cfg(), refs, cls, c);
  IpetCalculator ipet(p);
  const double via_ipet = ipet.maximize(m).objective;
  const double via_tree = tree_maximize(p, m);
  EXPECT_NEAR(via_ipet, via_tree, 1e-6 * std::max(1.0, via_tree));
}

TEST_P(RandomProgramTest, FmmEnginesAgree) {
  const Program p = make_program();
  // A small cache makes degraded classifications non-trivial.
  CacheConfig c;
  c.sets = 8;
  c.ways = 2;
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  IpetCalculator ipet(p);
  const FmmBundle a =
      compute_fmm_bundle(p, c, refs, profile, WcetEngine::kIlp, &ipet);
  const FmmBundle t =
      compute_fmm_bundle(p, c, refs, profile, WcetEngine::kTree, nullptr);
  for (SetIndex s = 0; s < c.sets; ++s)
    for (std::uint32_t f = 0; f <= c.ways; ++f) {
      EXPECT_NEAR(a.none.at(s, f), t.none.at(s, f), 1e-5);
      EXPECT_NEAR(a.srb.at(s, f), t.srb.at(s, f), 1e-5);
    }
}

TEST_P(RandomProgramTest, WcetBoundsSimulatedFaultFreeTime) {
  const Program p = make_program();
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  const auto cls = classify_fault_free(profile);
  const CostModel m = build_time_cost_model(p.cfg(), refs, cls, c);
  const double wcet = tree_maximize(p, m);
  Rng rng(0xcafe + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 3; ++trial) {
    const auto trace = fetch_trace(p.cfg(), random_walk(p, rng));
    const auto stats =
        simulate_trace(c, FaultMap::none(c), Mechanism::kNone, trace);
    EXPECT_LE(static_cast<double>(stats.cycles), wcet + 1e-6);
  }
}

TEST_P(RandomProgramTest, PenaltyBoundSoundUnderFaults) {
  const Program p = make_program();
  // Small, highly contended cache + aggressive fault rates.
  CacheConfig c;
  c.sets = 4;
  c.ways = 2;
  const auto refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  const auto cls = classify_fault_free(profile);
  const double wcet_ff =
      tree_maximize(p, build_time_cost_model(p.cfg(), refs, cls, c));
  const FmmBundle fmm =
      compute_fmm_bundle(p, c, refs, profile, WcetEngine::kTree, nullptr);

  Rng rng(0xf00d + static_cast<std::uint64_t>(GetParam()));
  const auto trace = fetch_trace(p.cfg(), full_iteration_walk(p, rng));
  for (int fault_trial = 0; fault_trial < 6; ++fault_trial) {
    const FaultMap map = FaultMap::sample(c, 0.15 * (fault_trial + 1), rng);
    for (const Mechanism mech :
         {Mechanism::kNone, Mechanism::kReliableWay,
          Mechanism::kSharedReliableBuffer}) {
      const auto stats = simulate_trace(c, map, mech, trace);
      double misses = 0.0;
      for (SetIndex s = 0; s < c.sets; ++s) {
        std::uint32_t f = map.faulty_count(s);
        if (mech == Mechanism::kReliableWay && map.is_faulty(s, 0)) f -= 1;
        misses += fmm.of(mech).at(s, f);
      }
      const double bound =
          wcet_ff + static_cast<double>(c.miss_penalty) * misses;
      EXPECT_LE(static_cast<double>(stats.cycles), bound + 1e-6)
          << "mech=" << mechanism_name(mech) << " faults=" << fault_trial;
    }
  }
}

TEST_P(RandomProgramTest, AnalyzerInvariantsHold) {
  const Program p = make_program();
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const PwcetPipeline a(
      p, {std::make_shared<IcacheDomain>(CacheConfig::paper_default())},
      options);
  const FaultModel faults(1e-4);
  const auto none = a.analyze(faults, Mechanism::kNone);
  const auto rw = a.analyze(faults, Mechanism::kReliableWay);
  const auto srb = a.analyze(faults, Mechanism::kSharedReliableBuffer);
  for (double prob : {1e-9, 1e-15}) {
    EXPECT_GE(none.pwcet(prob), a.fault_free_wcet());
    EXPECT_LE(rw.pwcet(prob), none.pwcet(prob));
    EXPECT_LE(srb.pwcet(prob), none.pwcet(prob));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace pwcet
