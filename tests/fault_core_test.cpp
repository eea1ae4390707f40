// Tests for the fault model (paper Eq. 1-3) and the top-level pWCET
// analyzer (§III-B, Fig. 3/4 machinery), including a Monte-Carlo
// domination check of the convolved penalty distribution.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "fault/fault_map.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

/// The paper's analysis: a pipeline over one instruction-cache domain.
PwcetPipeline icache_pipeline(const Program& p, const CacheConfig& c,
                              const PwcetOptions& options) {
  return PwcetPipeline(p, {std::make_shared<IcacheDomain>(c)}, options);
}

TEST(FaultModel, Equation1BlockFailure) {
  const CacheConfig c = CacheConfig::paper_default();  // 16 B = 128 bits
  const FaultModel m(1e-4);
  const double expected = 1.0 - std::pow(1.0 - 1e-4, 128);
  EXPECT_NEAR(m.block_failure_probability(c), expected, 1e-12);
}

TEST(FaultModel, Equation1TinyPfailPrecision) {
  // At pfail = 6.1e-13 (the 45nm value of the resilience roadmap cited in
  // §I), pbf ~ K * pfail; the naive pow() formulation would lose this.
  const CacheConfig c = CacheConfig::paper_default();
  const FaultModel m(6.1e-13);
  EXPECT_NEAR(m.block_failure_probability(c), 128 * 6.1e-13, 1e-17);
}

TEST(FaultModel, Equation2And3Pmfs) {
  const CacheConfig c = CacheConfig::paper_default();
  const FaultModel m(1e-4);
  const auto none = m.way_failure_pmf(c, Mechanism::kNone);
  const auto srb = m.way_failure_pmf(c, Mechanism::kSharedReliableBuffer);
  const auto rw = m.way_failure_pmf(c, Mechanism::kReliableWay);
  EXPECT_EQ(none.size(), 5u);  // f = 0..4 (Eq. 2)
  EXPECT_EQ(srb.size(), 5u);   // SRB does not change the fault law
  EXPECT_EQ(rw.size(), 4u);    // f = 0..3 (Eq. 3): no fully faulty set
  EXPECT_EQ(none, srb);
  double sum = 0.0;
  for (double x : rw) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FaultModel, ZeroPfailIsFaultFree) {
  const CacheConfig c = CacheConfig::paper_default();
  const FaultModel m(0.0);
  EXPECT_DOUBLE_EQ(m.block_failure_probability(c), 0.0);
  const auto pmf = m.way_failure_pmf(c, Mechanism::kNone);
  EXPECT_DOUBLE_EQ(pmf[0], 1.0);
}

class AnalyzerInvariantsTest : public ::testing::TestWithParam<std::string> {
 protected:
  static const PwcetPipeline& analyzer(const std::string& name) {
    // Cache pipelines across test cases (program construction + FMM is the
    // expensive part).
    static std::map<std::string, std::unique_ptr<PwcetPipeline>> cache;
    static std::map<std::string, std::unique_ptr<Program>> programs;
    auto it = cache.find(name);
    if (it == cache.end()) {
      programs[name] = std::make_unique<Program>(workloads::build(name));
      PwcetOptions options;
      options.engine = WcetEngine::kTree;  // fast; equivalence tested apart
      cache[name] = std::make_unique<PwcetPipeline>(
          *programs[name],
          std::vector<std::shared_ptr<const CacheDomain>>{
              std::make_shared<IcacheDomain>(CacheConfig::paper_default())},
          options);
      it = cache.find(name);
    }
    return *it->second;
  }
};

TEST_P(AnalyzerInvariantsTest, PwcetAtLeastFaultFree) {
  const auto& a = analyzer(GetParam());
  const FaultModel faults(1e-4);
  for (const Mechanism m : {Mechanism::kNone, Mechanism::kReliableWay,
                            Mechanism::kSharedReliableBuffer}) {
    const auto r = a.analyze(faults, m);
    EXPECT_GE(r.pwcet(1e-15), a.fault_free_wcet());
    EXPECT_GE(r.pwcet(1e-3), a.fault_free_wcet());
  }
}

TEST_P(AnalyzerInvariantsTest, MechanismsNeverHurt) {
  const auto& a = analyzer(GetParam());
  const FaultModel faults(1e-4);
  const auto none = a.analyze(faults, Mechanism::kNone);
  const auto rw = a.analyze(faults, Mechanism::kReliableWay);
  const auto srb = a.analyze(faults, Mechanism::kSharedReliableBuffer);
  for (double p : {1e-6, 1e-9, 1e-12, 1e-15}) {
    EXPECT_LE(rw.pwcet(p), none.pwcet(p)) << "p=" << p;
    EXPECT_LE(srb.pwcet(p), none.pwcet(p)) << "p=" << p;
  }
}

TEST_P(AnalyzerInvariantsTest, PwcetMonotoneInTargetProbability) {
  const auto& a = analyzer(GetParam());
  const FaultModel faults(1e-4);
  const auto r = a.analyze(faults, Mechanism::kNone);
  Cycles prev = r.pwcet(1e-3);
  for (double p : {1e-6, 1e-9, 1e-12, 1e-15, 1e-18}) {
    const Cycles cur = r.pwcet(p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST_P(AnalyzerInvariantsTest, PwcetMonotoneInPfail) {
  const auto& a = analyzer(GetParam());
  Cycles prev = a.fault_free_wcet();
  for (double pfail : {1e-7, 1e-6, 1e-5, 1e-4, 1e-3}) {
    const auto r = a.analyze(FaultModel(pfail), Mechanism::kNone);
    const Cycles cur = r.pwcet(1e-15);
    EXPECT_GE(cur, prev) << "pfail=" << pfail;
    prev = cur;
  }
}

TEST_P(AnalyzerInvariantsTest, VanishingPfailRecoversFaultFree) {
  const auto& a = analyzer(GetParam());
  const auto r = a.analyze(FaultModel(0.0), Mechanism::kNone);
  EXPECT_EQ(r.pwcet(1e-15), a.fault_free_wcet());
  EXPECT_EQ(r.penalty.max_value(), 0);
}

TEST_P(AnalyzerInvariantsTest, PenaltyDistributionWellFormed) {
  const auto& a = analyzer(GetParam());
  const auto r = a.analyze(FaultModel(1e-4), Mechanism::kSharedReliableBuffer);
  EXPECT_NEAR(r.penalty.total_mass(), 1.0, 1e-6);
  EXPECT_GE(r.penalty.min_value(), 0);
  // The CCDF is monotone non-increasing: one point per penalty atom, at
  // the exceedance just below the atom (the tail including it).
  const auto& atoms = r.penalty.atoms();
  for (std::size_t i = 1; i < atoms.size(); ++i) {
    EXPECT_GE(atoms[i].value, atoms[i - 1].value);
    EXPECT_LE(r.penalty.exceedance(atoms[i].value - 1),
              r.penalty.exceedance(atoms[i - 1].value - 1) + 1e-15);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, AnalyzerInvariantsTest,
                         ::testing::Values("fibcall", "bs", "matmult", "crc",
                                           "adpcm", "fft", "ud", "nsichneu"),
                         [](const auto& info) { return info.param; });

TEST(Analyzer, ExceedanceQuantileConsistency) {
  const Program p = workloads::build("matmult");
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const PwcetPipeline a =
      icache_pipeline(p, CacheConfig::paper_default(), options);
  const auto r = a.analyze(FaultModel(1e-4), Mechanism::kNone);
  for (double prob : {1e-6, 1e-10, 1e-15}) {
    const Cycles v = r.pwcet(prob);
    EXPECT_LE(r.exceedance(v), prob);          // v is safe at level prob
    EXPECT_GT(r.exceedance(v - 101), prob);    // and tight to one penalty
  }
}

TEST(Analyzer, PenaltyDistributionDominatesMonteCarlo) {
  // Sample fault maps, evaluate the *model* penalty sum_s FMM[s][f_s], and
  // check the analytic convolution dominates the empirical distribution —
  // this exercises binomial law + convolution + coalescing end to end.
  const Program p = workloads::build("cnt");
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const CacheConfig c = CacheConfig::paper_default();
  const PwcetPipeline a = icache_pipeline(p, c, options);
  // Large pfail so the Monte-Carlo sees non-trivial fault counts.
  const double pfail = 0.005;
  const FaultModel faults(pfail);
  const auto r = a.analyze(faults, Mechanism::kNone);
  const double pbf = faults.block_failure_probability(c);

  Rng rng(97);
  const int n = 20000;
  std::vector<double> samples;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) {
    const FaultMap map = FaultMap::sample(c, pbf, rng);
    double misses = 0.0;
    for (SetIndex s = 0; s < c.sets; ++s)
      misses += a.fmm(0).none.at(s, map.faulty_count(s));
    samples.push_back(misses * static_cast<double>(c.miss_penalty));
  }
  // At several thresholds: model exceedance >= empirical - sampling noise.
  for (double q : {0.5, 0.9, 0.99}) {
    const double threshold = empirical_quantile(samples, q);
    const double empirical = empirical_exceedance(samples, threshold);
    const double model =
        r.penalty.exceedance(static_cast<Cycles>(threshold));
    EXPECT_GE(model + 3.0 * std::sqrt(empirical / n) + 1e-9, empirical)
        << "q=" << q;
  }
}

TEST(Analyzer, IlpAndTreeEnginesAgreeEndToEnd) {
  const Program p = workloads::build("expint");
  const CacheConfig c = CacheConfig::paper_default();
  PwcetOptions tree_opts;
  tree_opts.engine = WcetEngine::kTree;
  PwcetOptions ilp_opts;
  ilp_opts.engine = WcetEngine::kIlp;
  const PwcetPipeline via_tree = icache_pipeline(p, c, tree_opts);
  const PwcetPipeline via_ilp = icache_pipeline(p, c, ilp_opts);
  EXPECT_EQ(via_tree.fault_free_wcet(), via_ilp.fault_free_wcet());
  const FaultModel faults(1e-4);
  for (const Mechanism m : {Mechanism::kNone, Mechanism::kReliableWay,
                            Mechanism::kSharedReliableBuffer}) {
    EXPECT_EQ(via_tree.analyze(faults, m).pwcet(1e-15),
              via_ilp.analyze(faults, m).pwcet(1e-15));
  }
}

TEST(Analyzer, CoarserCoalescingStaysConservative) {
  // Fewer support points => the quantile can only move up (sound).
  const Program p = workloads::build("statemate");
  const CacheConfig c = CacheConfig::paper_default();
  PwcetOptions fine;
  fine.engine = WcetEngine::kTree;
  fine.max_distribution_points = 4096;
  PwcetOptions coarse = fine;
  coarse.max_distribution_points = 16;
  const PwcetPipeline a_fine = icache_pipeline(p, c, fine);
  const PwcetPipeline a_coarse = icache_pipeline(p, c, coarse);
  const FaultModel faults(1e-4);
  const auto r_fine = a_fine.analyze(faults, Mechanism::kNone);
  const auto r_coarse = a_coarse.analyze(faults, Mechanism::kNone);
  for (double prob : {1e-6, 1e-10, 1e-15})
    EXPECT_GE(r_coarse.pwcet(prob), r_fine.pwcet(prob));
}

}  // namespace
}  // namespace pwcet
