// Tests for the hand-rolled EVT statistics and the MBPTA protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "mbpta/evt.hpp"
#include "mbpta/mbpta.hpp"
#include "sim/population.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

/// Inverse-CDF sampling from a Gumbel(mu, beta).
std::vector<double> gumbel_sample(double mu, double beta, std::size_t n,
                                  Rng& rng) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.next_double();
    out.push_back(mu - beta * std::log(-std::log(u + 1e-300)));
  }
  return out;
}

TEST(Gumbel, CdfAndQuantileAreInverse) {
  GumbelFit fit;
  fit.mu = 100.0;
  fit.beta = 12.0;
  for (double p : {0.5, 1e-3, 1e-9, 1e-15}) {
    const double x = fit.quantile_exceedance(p);
    EXPECT_NEAR(fit.exceedance(x), p, p * 1e-6);
  }
  // The naive 1 - cdf agrees where it is representable.
  EXPECT_NEAR(1.0 - fit.cdf(fit.quantile_exceedance(1e-3)), 1e-3, 1e-9);
}

TEST(Gumbel, QuantileMonotoneInExceedance) {
  GumbelFit fit;
  fit.mu = 0.0;
  fit.beta = 1.0;
  EXPECT_LT(fit.quantile_exceedance(1e-3), fit.quantile_exceedance(1e-6));
  EXPECT_LT(fit.quantile_exceedance(1e-6), fit.quantile_exceedance(1e-12));
}

TEST(Gumbel, MleRecoversSyntheticParameters) {
  Rng rng(101);
  const auto sample = gumbel_sample(500.0, 30.0, 5000, rng);
  const GumbelFit fit = fit_gumbel_mle(sample);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.mu, 500.0, 3.0);
  EXPECT_NEAR(fit.beta, 30.0, 2.0);
}

TEST(Gumbel, MleHandlesLargeLocation) {
  // Execution times are ~1e6 cycles; exponentials must not overflow.
  Rng rng(103);
  const auto sample = gumbel_sample(2.0e6, 1.5e4, 2000, rng);
  const GumbelFit fit = fit_gumbel_mle(sample);
  EXPECT_NEAR(fit.mu, 2.0e6, 2e3);
  EXPECT_NEAR(fit.beta, 1.5e4, 2e3);
}

TEST(Gumbel, DegenerateSampleDoesNotBlowUp) {
  const std::vector<double> flat(50, 7.0);
  const GumbelFit fit = fit_gumbel_mle(flat);
  EXPECT_FALSE(fit.converged);
  EXPECT_NEAR(fit.mu, 7.0, 1e-6);
}

TEST(Gumbel, KsSmallOnSelfFitLargeOnWrongModel) {
  Rng rng(107);
  const auto sample = gumbel_sample(100.0, 10.0, 3000, rng);
  const GumbelFit good = fit_gumbel_mle(sample);
  const double d_good =
      ks_statistic(sample, [&](double x) { return good.cdf(x); });
  EXPECT_LT(d_good, 0.03);
  GumbelFit bad;
  bad.mu = 300.0;
  bad.beta = 3.0;
  const double d_bad =
      ks_statistic(sample, [&](double x) { return bad.cdf(x); });
  EXPECT_GT(d_bad, 0.5);
}

TEST(BlockMaxima, WindowsAndRemainder) {
  const std::vector<double> v{1, 5, 2, 8, 3, 4, 9};
  const auto maxima = block_maxima(v, 2);
  ASSERT_EQ(maxima.size(), 3u);  // trailing element dropped
  EXPECT_DOUBLE_EQ(maxima[0], 5);
  EXPECT_DOUBLE_EQ(maxima[1], 8);
  EXPECT_DOUBLE_EQ(maxima[2], 4);
}

TEST(Mbpta, RunsAndBracketsObservedTimes) {
  const Program p = workloads::build("bs");
  const CacheConfig c = CacheConfig::paper_default();
  MbptaOptions options;
  options.chips = 200;
  options.block_size = 10;
  const auto r =
      run_mbpta(p, c, FaultModel(1e-3), Mechanism::kNone, options, 0x5eed);
  ASSERT_EQ(r.times.size(), 200u);
  EXPECT_GT(r.observed_max, 0.0);
  // The fitted 1e-9 quantile lies above the empirical sample body.
  EXPECT_GE(r.pwcet(1e-9), empirical_quantile(r.times, 0.99));
}

TEST(Mbpta, StaticBoundDominatesAllObservations) {
  // The SPTA pWCET at the per-chip exceedance level must dominate every
  // observed (simulated) chip execution on the same path — the paper's
  // core safety claim, checked against the measurement pipeline.
  const Program p = workloads::build("prime");
  const CacheConfig c = CacheConfig::paper_default();
  PwcetOptions popt;
  popt.engine = WcetEngine::kTree;
  const PwcetPipeline analyzer(p, {std::make_shared<IcacheDomain>(c)}, popt);
  const FaultModel faults(1e-3);
  MbptaOptions options;
  options.chips = 300;
  options.block_size = 15;
  for (const Mechanism m : {Mechanism::kNone, Mechanism::kReliableWay,
                            Mechanism::kSharedReliableBuffer}) {
    const auto spta = analyzer.analyze(faults, m);
    const auto mbpta = run_mbpta(p, c, faults, m, options, 0x5eed);
    EXPECT_GE(static_cast<double>(spta.pwcet(1e-15)), mbpta.observed_max)
        << mechanism_name(m);
  }
}

TEST(Mbpta, DeterministicUnderSeed) {
  const Program p = workloads::build("bs");
  const CacheConfig c = CacheConfig::paper_default();
  MbptaOptions options;
  options.chips = 60;
  options.block_size = 10;
  const auto a =
      run_mbpta(p, c, FaultModel(1e-3), Mechanism::kNone, options, 12345);
  const auto b =
      run_mbpta(p, c, FaultModel(1e-3), Mechanism::kNone, options, 12345);
  EXPECT_EQ(a.times, b.times);
  // The observations are the shared chip-population loop's output.
  EXPECT_EQ(a.times, simulate_chip_population(p, c, FaultModel(1e-3),
                                              Mechanism::kNone, 60, 12345));
}

}  // namespace
}  // namespace pwcet
