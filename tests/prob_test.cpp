// Unit and property tests for src/prob: binomial law (paper Eq. 2-3) and
// the discrete penalty distributions with conservative coalescing
// (paper Fig. 1.b); convolve and coalesce_up are pinned bit for bit to
// copies of their historical implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/l2_domain.hpp"
#include "analysis/pipeline.hpp"
#include "prob/binomial.hpp"
#include "prob/discrete_distribution.hpp"
#include "support/rng.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

TEST(Binomial, CoefficientSmallCases) {
  EXPECT_NEAR(std::exp(log_binomial_coefficient(4, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(4, 1)), 4.0, 1e-12);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(4, 2)), 6.0, 1e-12);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(10, 5)), 252.0, 1e-9);
}

TEST(Binomial, PmfMatchesDirectFormula) {
  const double p = 0.3;
  for (unsigned k = 0; k <= 4; ++k) {
    double direct = 1.0;
    // n = 4 direct computation.
    const double choose[] = {1, 4, 6, 4, 1};
    direct = choose[k] * std::pow(p, k) * std::pow(1 - p, 4 - k);
    EXPECT_NEAR(binomial_pmf(4, k, p), direct, 1e-12);
  }
}

TEST(Binomial, PmfVectorSumsToOne) {
  for (double p : {0.0, 1e-10, 1e-4, 0.01, 0.5, 0.99, 1.0}) {
    const auto pmf = binomial_pmf_vector(4, p);
    ASSERT_EQ(pmf.size(), 5u);
    double sum = 0.0;
    for (double x : pmf) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "p=" << p;
  }
}

TEST(Binomial, ExtremeTailStaysAccurate) {
  // pbf ~ 1.3e-2 for pfail = 1e-4 (paper); pwf(4) = pbf^4 ~ 2.6e-8 must not
  // round to zero, nor should far smaller tails.
  const double pbf = 0.0127182;
  EXPECT_NEAR(binomial_pmf(4, 4, pbf), std::pow(pbf, 4), 1e-14);
  const double tiny = binomial_pmf(4, 4, 1e-10);
  EXPECT_GT(tiny, 0.0);
  EXPECT_NEAR(tiny, 1e-40, 1e-45);
}

TEST(Binomial, DegenerateP) {
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 2, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 4, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(4, 1, 1.0), 0.0);
}

TEST(Binomial, TailGeq) {
  const double p = 0.2;
  EXPECT_NEAR(binomial_tail_geq(4, 0, p), 1.0, 1e-12);
  double direct = 0.0;
  for (unsigned k = 2; k <= 4; ++k) direct += binomial_pmf(4, k, p);
  EXPECT_NEAR(binomial_tail_geq(4, 2, p), direct, 1e-12);
  EXPECT_DOUBLE_EQ(binomial_tail_geq(4, 5, p), 0.0);
}

TEST(Distribution, DefaultIsZeroPoint) {
  const DiscreteDistribution d;
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.min_value(), 0);
  EXPECT_DOUBLE_EQ(d.total_mass(), 1.0);
}

TEST(Distribution, FromAtomsMergesAndSorts) {
  const auto d = DiscreteDistribution::from_atoms(
      {{5, 0.25}, {1, 0.5}, {5, 0.25}});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d.atoms()[0].value, 1);
  EXPECT_DOUBLE_EQ(d.atoms()[0].probability, 0.5);
  EXPECT_EQ(d.atoms()[1].value, 5);
  EXPECT_DOUBLE_EQ(d.atoms()[1].probability, 0.5);
}

TEST(Distribution, DropsZeroProbabilityAtoms) {
  const auto d =
      DiscreteDistribution::from_atoms({{1, 1.0}, {7, 0.0}});
  EXPECT_EQ(d.size(), 1u);
}

TEST(Distribution, ExceedanceStepFunction) {
  const auto d = DiscreteDistribution::from_atoms({{10, 0.7}, {20, 0.3}});
  EXPECT_DOUBLE_EQ(d.exceedance(9), 1.0);
  EXPECT_DOUBLE_EQ(d.exceedance(10), 0.3);
  EXPECT_DOUBLE_EQ(d.exceedance(19), 0.3);
  EXPECT_DOUBLE_EQ(d.exceedance(20), 0.0);
}

TEST(Distribution, QuantileExceedance) {
  const auto d = DiscreteDistribution::from_atoms({{10, 0.7}, {20, 0.3}});
  // P[X > 10] = 0.3 <= 0.5, and any v < 10 has exceedance 1.0.
  EXPECT_EQ(d.quantile_exceedance(0.5), 10);
  EXPECT_EQ(d.quantile_exceedance(0.3), 10);   // 0.3 <= 0.3 holds at 10
  EXPECT_EQ(d.quantile_exceedance(0.29), 20);  // need the top atom
  EXPECT_EQ(d.quantile_exceedance(0.0), 20);
}

TEST(Distribution, QuantileOfDegenerate) {
  const auto d = DiscreteDistribution::degenerate(42);
  EXPECT_EQ(d.quantile_exceedance(1e-15), 42);
  EXPECT_EQ(d.quantile_exceedance(0.9), 42);
}

TEST(Distribution, ConvolveTwoDice) {
  std::vector<ProbabilityAtom> die;
  for (int v = 1; v <= 6; ++v) die.push_back({v, 1.0 / 6.0});
  const auto d = DiscreteDistribution::from_atoms(die);
  const auto sum = d.convolve(d);
  ASSERT_EQ(sum.size(), 11u);  // 2..12
  EXPECT_EQ(sum.min_value(), 2);
  EXPECT_EQ(sum.max_value(), 12);
  EXPECT_NEAR(sum.total_mass(), 1.0, 1e-12);
  // P[sum = 7] = 6/36.
  EXPECT_NEAR(sum.exceedance(6) - sum.exceedance(7), 6.0 / 36.0, 1e-12);
}

TEST(Distribution, ConvolveWithZeroIsIdentity) {
  const auto d = DiscreteDistribution::from_atoms({{3, 0.4}, {9, 0.6}});
  const auto same = d.convolve(DiscreteDistribution::degenerate(0));
  EXPECT_EQ(same, d);
}

TEST(Distribution, Shift) {
  const auto d = DiscreteDistribution::from_atoms({{1, 0.5}, {2, 0.5}});
  const auto shifted = d.shift(100);
  EXPECT_EQ(shifted.min_value(), 101);
  EXPECT_EQ(shifted.max_value(), 102);
}

TEST(Distribution, MeanLinearity) {
  const auto d = DiscreteDistribution::from_atoms({{2, 0.5}, {6, 0.5}});
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_DOUBLE_EQ(d.shift(10).mean(), 14.0);
}

TEST(Distribution, CoalesceKeepsMassAndBounds) {
  std::vector<ProbabilityAtom> atoms;
  for (int v = 0; v < 100; ++v) atoms.push_back({v, 0.01});
  const auto d = DiscreteDistribution::from_atoms(atoms);
  const auto c = d.coalesce_up(10);
  EXPECT_LE(c.size(), 10u);
  EXPECT_NEAR(c.total_mass(), 1.0, 1e-12);
  EXPECT_EQ(c.max_value(), d.max_value());  // top atom always preserved
}

TEST(Distribution, CoalesceIsConservative) {
  // The coalesced distribution must stochastically dominate the original:
  // moving mass upward can only increase exceedance probabilities.
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ProbabilityAtom> atoms;
    double total = 0.0;
    const int n = 20 + static_cast<int>(rng.next_below(80));
    for (int i = 0; i < n; ++i) {
      const double p = rng.next_double() + 1e-3;
      atoms.push_back({static_cast<Cycles>(rng.next_below(100000)), p});
      total += p;
    }
    for (auto& a : atoms) a.probability /= total;
    const auto d = DiscreteDistribution::from_atoms(atoms);
    const auto c = d.coalesce_up(8);
    EXPECT_TRUE(c.dominates(d)) << "trial " << trial;
    EXPECT_NEAR(c.total_mass(), 1.0, 1e-9);
  }
}

TEST(Distribution, DominatesIsReflexiveAndDetectsViolation) {
  const auto a = DiscreteDistribution::from_atoms({{1, 0.5}, {10, 0.5}});
  const auto b = DiscreteDistribution::from_atoms({{1, 0.4}, {10, 0.6}});
  EXPECT_TRUE(a.dominates(a));
  EXPECT_TRUE(b.dominates(a));   // b has more mass up high
  EXPECT_FALSE(a.dominates(b));
}

TEST(Distribution, RelativeBoundCatchesAShortTailBelowTheAbsoluteOne) {
  // The candidate's tail is half the reference's at the 1e-12 level: an
  // absolute 1e-9 tolerance forgives the shortfall, the relative 1e-9
  // bound does not.
  const auto reference =
      DiscreteDistribution::from_atoms({{0, 1.0 - 2e-12}, {100, 2e-12}});
  const auto short_tail =
      DiscreteDistribution::from_atoms({{0, 1.0 - 1e-12}, {100, 1e-12}});
  EXPECT_TRUE(short_tail.dominates(reference, 1e-9));
  EXPECT_FALSE(short_tail.dominates(reference, 1e-9, 1e-9));
  EXPECT_TRUE(reference.dominates(short_tail, 1e-9, 1e-9));
  EXPECT_TRUE(reference.dominates(reference, 1e-9, 1e-9));
}

TEST(Distribution, ConvolveAllWithCoalescing) {
  // 16 independent 3-point distributions (like 16 cache sets).
  std::vector<DiscreteDistribution> parts;
  for (int s = 0; s < 16; ++s) {
    parts.push_back(DiscreteDistribution::from_atoms(
        {{0, 0.9}, {100 * (s + 1), 0.09}, {1000 * (s + 1), 0.01}}));
  }
  const auto all = convolve_all(parts, 512);
  EXPECT_LE(all.size(), 512u);
  EXPECT_NEAR(all.total_mass(), 1.0, 1e-9);
  // Maximum penalty = sum of the per-part maxima (coalescing keeps the top).
  Cycles expected_max = 0;
  for (int s = 0; s < 16; ++s) expected_max += 1000 * (s + 1);
  EXPECT_EQ(all.max_value(), expected_max);
  // All-zero outcome has probability 0.9^16.
  EXPECT_NEAR(1.0 - all.exceedance(0), std::pow(0.9, 16), 1e-9);
}

TEST(Distribution, PaperFigure1Example) {
  // Paper Fig. 1.b: sets 0 and 1 with FMM rows {10, 130} and {14, 164}
  // (W = 2), combined by convolution. Probabilities pwf(0), pwf(1), pwf(2).
  const double pbf = 0.1;
  const auto pwf = binomial_pmf_vector(2, pbf);
  const auto set0 = DiscreteDistribution::from_atoms(
      {{0, pwf[0]}, {10, pwf[1]}, {130, pwf[2]}});
  const auto set1 = DiscreteDistribution::from_atoms(
      {{0, pwf[0]}, {14, pwf[1]}, {164, pwf[2]}});
  const auto combined = set0.convolve(set1);
  // 9 combinations, all distinct sums here.
  EXPECT_EQ(combined.size(), 9u);
  EXPECT_EQ(combined.max_value(), 130 + 164);
  EXPECT_NEAR(combined.exceedance(293), pwf[2] * pwf[2], 1e-15);
  // P[penalty = 24] = pwf(1)^2 (one faulty block in each set).
  EXPECT_NEAR(combined.exceedance(23) - combined.exceedance(24),
              pwf[1] * pwf[1], 1e-12);
}

TEST(Distribution, ExceedanceAccumulatesTinyTails) {
  // Summing from the top must retain 1e-30-scale tail atoms.
  const auto d = DiscreteDistribution::from_atoms(
      {{0, 1.0 - 1e-30}, {1000, 1e-30}});
  EXPECT_NEAR(d.exceedance(500), 1e-30, 1e-36);
}

// ---- the convolve fast path ------------------------------------------------

/// The historical convolve, verbatim: generate all pair products a-major /
/// b-minor with hardware multiplies, stable-sort by value, accumulate left
/// to right. The shipped implementation (dense lattice buckets / streaming
/// k-way merge, integer-rounded products below 2^-1021, skipped zero
/// products) claims bit-identity with this; these tests hold it to that.
DiscreteDistribution reference_convolve(const DiscreteDistribution& a,
                                        const DiscreteDistribution& b) {
  std::vector<ProbabilityAtom> products;
  products.reserve(a.size() * b.size());
  for (const auto& x : a.atoms())
    for (const auto& y : b.atoms())
      products.push_back({x.value + y.value, x.probability * y.probability});
  std::stable_sort(products.begin(), products.end(),
                   [](const ProbabilityAtom& x, const ProbabilityAtom& y) {
                     return x.value < y.value;
                   });
  std::vector<ProbabilityAtom> atoms;
  for (const auto& product : products) {
    if (!atoms.empty() && atoms.back().value == product.value)
      atoms.back().probability += product.probability;
    else
      atoms.push_back(product);
  }
  std::erase_if(atoms,
                [](const ProbabilityAtom& a) { return a.probability == 0.0; });
  return DiscreteDistribution::from_canonical_atoms(std::move(atoms));
}

/// A random distribution on the lattice {base + stride * k}; mimics the
/// penalty shapes the analysis produces (values = multiples of the miss
/// penalty).
DiscreteDistribution random_lattice_distribution(Rng& rng, Cycles stride,
                                                 std::size_t max_atoms) {
  const std::size_t count = 1 + rng.next_below(max_atoms);
  std::vector<ProbabilityAtom> atoms;
  double mass = 0.0;
  Cycles value = static_cast<Cycles>(rng.next_below(50)) * stride;
  for (std::size_t i = 0; i < count; ++i) {
    const double p = rng.next_double() + 1e-3;
    atoms.push_back({value, p});
    mass += p;
    value += static_cast<Cycles>(1 + rng.next_below(20)) * stride;
  }
  for (auto& a : atoms) a.probability /= mass;
  return DiscreteDistribution::from_atoms(std::move(atoms));
}

/// Atoms with distinct values, in any order and with any positive masses,
/// as a distribution (from_canonical_atoms does not check the mass).
DiscreteDistribution sorted_distribution(std::vector<ProbabilityAtom> atoms) {
  std::sort(atoms.begin(), atoms.end(),
            [](const ProbabilityAtom& x, const ProbabilityAtom& y) {
              return x.value < y.value;
            });
  return DiscreteDistribution::from_canonical_atoms(std::move(atoms));
}

std::uint32_t biased_exponent(double x) {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 52);
}

/// A positive double with biased exponent 0..1023 (0: subnormal). Three
/// in four exponents come from 470..530, so pair sums cluster around the
/// subnormal band 970..1023 and its edges. Half the significands keep only
/// their top 0..8 fraction bits, which makes exact half-way products.
double random_band_probability(Rng& rng) {
  const std::uint64_t exponent = rng.next_below(4) == 0
                                     ? rng.next_below(1024)
                                     : 470 + rng.next_below(61);
  std::uint64_t fraction = rng.next_u64() >> 12;
  if (rng.next_below(2) == 0)
    fraction &= ~((std::uint64_t{1} << (52 - rng.next_below(9))) - 1);
  if (exponent == 0 && fraction == 0) fraction = std::uint64_t{1} << 51;
  return std::bit_cast<double>(exponent << 52 | fraction);
}

TEST(Distribution, ConvolveBitIdenticalToReferenceOnLattices) {
  // The dense-bucket path (lattice supports, the analysis workload).
  Rng rng(0xc0417e5);
  for (int trial = 0; trial < 200; ++trial) {
    const Cycles stride = static_cast<Cycles>(1 + rng.next_below(40));
    const auto a = random_lattice_distribution(rng, stride, 64);
    const auto b = random_lattice_distribution(rng, stride, 64);
    ASSERT_EQ(a.convolve(b), reference_convolve(a, b));
  }
}

TEST(Distribution, ConvolveBitIdenticalToReferenceOffLattice) {
  // Mixed strides (gcd collapses to small values or 1) still bucket
  // densely; the scatter path must match the reference too.
  Rng rng(0x0ffb347);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = random_lattice_distribution(
        rng, static_cast<Cycles>(1 + rng.next_below(7)), 48);
    const auto b = random_lattice_distribution(
        rng, static_cast<Cycles>(1 + rng.next_below(5)), 48);
    ASSERT_EQ(a.convolve(b), reference_convolve(a, b));
  }
}

TEST(Distribution, ConvolveMatchesHardwareProductsInEveryExponentBand) {
  // a at 0..n-1 and b at multiples of n: every pair sum is distinct, so
  // each output atom is one product, compared bit for bit with the
  // hardware's. Pair exponent sums cover the normal products (>= 1024),
  // the integer-rounded band (970..1023) and the zeros (<= 969); b with
  // gaps makes the dense path scatter, and both operand orders run.
  Rng rng(0xba4d5);
  std::size_t at_969 = 0, at_970 = 0, at_1023 = 0, at_1024 = 0, ties = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.next_below(40);
    const std::size_t m = 1 + rng.next_below(40);
    const bool gaps = trial % 2 == 1;
    std::vector<ProbabilityAtom> atoms_a, atoms_b;
    // Each input's first atom is a head mass near 1, as in a penalty
    // distribution; it keeps the result non-empty.
    for (std::size_t i = 0; i < n; ++i)
      atoms_a.push_back({static_cast<Cycles>(i),
                         i == 0 ? 0.5 + 0.5 * rng.next_double()
                                : random_band_probability(rng)});
    Cycles multiple = 0;
    for (std::size_t j = 0; j < m; ++j) {
      atoms_b.push_back({multiple * static_cast<Cycles>(n),
                         j == 0 ? 0.5 + 0.5 * rng.next_double()
                                : random_band_probability(rng)});
      multiple += gaps ? 1 + static_cast<Cycles>(rng.next_below(3)) : 1;
    }
    for (const ProbabilityAtom& x : atoms_a)
      for (const ProbabilityAtom& y : atoms_b) {
        const std::uint32_t sum =
            biased_exponent(x.probability) + biased_exponent(y.probability);
        at_969 += sum == 969;
        at_970 += sum == 970;
        at_1023 += sum == 1023;
        at_1024 += sum == 1024;
        // With truncated significands the long double product is exact:
        // count the products that lie half-way between two multiples of
        // 2^-1074, the smallest subnormal.
        const long double scaled = std::ldexp(
            static_cast<long double>(x.probability) * y.probability, 1074);
        if (sum > 969 && sum < 1024 && scaled - std::floor(scaled) == 0.5L)
          ++ties;
      }
    const auto a = DiscreteDistribution::from_canonical_atoms(atoms_a);
    const auto b = DiscreteDistribution::from_canonical_atoms(atoms_b);
    ASSERT_EQ(a.convolve(b), reference_convolve(a, b)) << "trial " << trial;
    ASSERT_EQ(b.convolve(a), reference_convolve(b, a)) << "trial " << trial;
  }
  EXPECT_GT(at_969, 0u);
  EXPECT_GT(at_970, 0u);
  EXPECT_GT(at_1023, 0u);
  EXPECT_GT(at_1024, 0u);
  EXPECT_GT(ties, 0u);
}

TEST(Distribution, SubnormalsAreNeitherFlushedNorZeroed) {
  // At low pfail, penalty tails fall below 2^-1022. convolve's bytes are
  // IEEE gradual underflow's: with flush-to-zero (FTZ) a subnormal
  // product becomes 0, and with denormals-are-zero (DAZ) a subnormal
  // addend counts as 0. Building with -ffast-math or -Ofast links
  // crtfastmath.o, which sets both at start-up.
  const char* const why =
      "; -ffast-math and -Ofast set FTZ and DAZ through crtfastmath.o, "
      "which changes the bytes of every low-pfail report";
  // Operands and results pass through volatiles, so the arithmetic runs
  // at run time, under the floating-point mode the test checks; results
  // are compared as bits, since DAZ also zeroes a subnormal in a compare.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  volatile double factor = 0x1p-1000;
  volatile double product = factor * 0x1p-60;
  EXPECT_EQ(bits(product), bits(0x1p-1060))
      << "subnormal product flushed to zero (FTZ)" << why;
  volatile double addend = 0x1p-1060;
  volatile double sum = 0x1p-1022 + addend;
  EXPECT_EQ(bits(sum), bits(0x1p-1022 + 0x1p-1060))
      << "subnormal addend read as zero (DAZ)" << why;
}

TEST(Distribution, ConvolveAdversariallyWideInputs) {
  // Values spread over a 2^40 range with gcd 1: a dense accumulator would
  // need ~10^12 buckets, so this must take the streaming merge path — the
  // regression test for the old unchecked reserve(n * m), which on inputs
  // like these requested absurd allocations proportional to the product
  // rather than the output. Bit-identity with the reference still holds.
  Rng rng(0x51deb00c);
  std::vector<ProbabilityAtom> wide_a, wide_b;
  double mass_a = 0.0, mass_b = 0.0;
  for (int i = 0; i < 40; ++i) {
    const double pa = rng.next_double() + 1e-3;
    const double pb = rng.next_double() + 1e-3;
    wide_a.push_back(
        {static_cast<Cycles>(rng.next_below(std::uint64_t{1} << 40)), pa});
    wide_b.push_back(
        {static_cast<Cycles>(rng.next_below(std::uint64_t{1} << 40)) | 1,
         pb});
    mass_a += pa;
    mass_b += pb;
  }
  for (auto& a : wide_a) a.probability /= mass_a;
  for (auto& b : wide_b) b.probability /= mass_b;
  const auto a = DiscreteDistribution::from_atoms(std::move(wide_a));
  const auto b = DiscreteDistribution::from_atoms(std::move(wide_b));
  const auto fast = a.convolve(b);
  EXPECT_EQ(fast, reference_convolve(a, b));
  EXPECT_NEAR(fast.total_mass(), 1.0, 1e-9);
  EXPECT_EQ(fast.max_value(), a.max_value() + b.max_value());
}

TEST(Distribution, ConvolveAdversariallyWideInputsWithSubnormalProducts) {
  // The merge path's twin of ConvolveAdversariallyWideInputs: masses from
  // 1e-165 to 1e-157, so pair products fall from 1e-330 to 1e-314 —
  // subnormal or rounding to zero. Each input pairs every value v with
  // v + 2^41, so every sum r + s + 2^41 is reached twice, and a zero
  // product can share a value with a nonzero one in either order.
  Rng rng(0x5ab0b00c);
  constexpr Cycles kTwin = Cycles{1} << 41;
  std::vector<ProbabilityAtom> wide_a, wide_b;
  for (int i = 0; i < 20; ++i) {
    const auto r =
        static_cast<Cycles>(rng.next_below(std::uint64_t{1} << 40));
    const auto s =
        static_cast<Cycles>(rng.next_below(std::uint64_t{1} << 40)) | 1;
    for (const Cycles twin : {Cycles{0}, kTwin}) {
      wide_a.push_back(
          {r + twin, std::pow(10.0, -157 - 8 * rng.next_double())});
      wide_b.push_back(
          {s + twin, std::pow(10.0, -157 - 8 * rng.next_double())});
    }
  }
  std::size_t zero = 0, tiny = 0;
  for (const ProbabilityAtom& x : wide_a)
    for (const ProbabilityAtom& y : wide_b) {
      const double p = x.probability * y.probability;
      if (p == 0.0) ++zero;
      if (p > 0.0 && p < std::numeric_limits<double>::min()) ++tiny;
    }
  EXPECT_GT(zero, 0u);
  EXPECT_GT(tiny, 0u);
  const auto a = sorted_distribution(std::move(wide_a));
  const auto b = sorted_distribution(std::move(wide_b));
  EXPECT_EQ(a.convolve(b), reference_convolve(a, b));
  EXPECT_EQ(b.convolve(a), reference_convolve(b, a));
}

TEST(Distribution, ConvolveAllTreeSharedMatchesExpandedTree) {
  // The deduplicating tree must be bit-identical to convolve_all_tree on
  // the expanded leaf list, for every leaf multiplicity pattern — odd
  // counts included (the pass-through leg).
  Rng rng(0xdedu);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t distinct_count = 1 + rng.next_below(5);
    std::vector<DiscreteDistribution> distinct;
    for (std::size_t i = 0; i < distinct_count; ++i)
      distinct.push_back(random_lattice_distribution(rng, 10, 8));
    const std::size_t leaves = 1 + rng.next_below(33);
    std::vector<std::uint32_t> ids;
    std::vector<DiscreteDistribution> expanded;
    for (std::size_t s = 0; s < leaves; ++s) {
      ids.push_back(
          static_cast<std::uint32_t>(rng.next_below(distinct_count)));
      expanded.push_back(distinct[ids.back()]);
    }
    const std::size_t max_points = 2 + rng.next_below(64);
    ASSERT_EQ(convolve_all_tree_shared(distinct, ids, max_points),
              convolve_all_tree(expanded, max_points));
  }
}

// ---- the coalesce_up selection ---------------------------------------------

/// What merging atom i into atom i + 1 costs: the probability mass moved
/// times the distance it moves (coalesce_up's expression).
double merge_cost(const std::vector<ProbabilityAtom>& atoms, std::size_t i) {
  return atoms[i].probability *
         static_cast<double>(atoms[i + 1].value - atoms[i].value);
}

/// The historical coalesce_up, verbatim: std::sort all n - 1 merge indices
/// by cost, perform the first n - max_points, roll each run of merged
/// atoms into the next kept one. std::sort is not stable, so which tied
/// merges land before the cut is whatever its introsort does; the shipped
/// selection claims bit-identity with exactly that. `stable_ties` swaps in
/// std::stable_sort — the lowest-index-first tie rule these tests must be
/// able to tell apart from it.
DiscreteDistribution reference_coalesce_up(const DiscreteDistribution& d,
                                           std::size_t max_points,
                                           bool stable_ties = false) {
  const std::vector<ProbabilityAtom>& in = d.atoms();
  if (in.size() <= max_points) return d;
  std::vector<std::size_t> order(in.size() - 1);
  for (std::size_t i = 0; i + 1 < in.size(); ++i) order[i] = i;
  const auto cheaper = [&](std::size_t a, std::size_t b) {
    return merge_cost(in, a) < merge_cost(in, b);
  };
  if (stable_ties)
    std::stable_sort(order.begin(), order.end(), cheaper);
  else
    std::sort(order.begin(), order.end(), cheaper);
  std::vector<bool> merged_up(in.size(), false);
  for (std::size_t i = 0; i < in.size() - max_points; ++i)
    merged_up[order[i]] = true;
  std::vector<ProbabilityAtom> atoms;
  Probability carried = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (merged_up[i]) {
      carried += in[i].probability;
    } else {
      atoms.push_back({in[i].value, in[i].probability + carried});
      carried = 0.0;
    }
  }
  return DiscreteDistribution::from_canonical_atoms(std::move(atoms));
}

/// True when the cut splits a run of equal merge costs: the inputs on
/// which coalesce_up must reproduce std::sort's tie order.
bool tie_at_cut(const DiscreteDistribution& d, std::size_t max_points) {
  const std::vector<ProbabilityAtom>& in = d.atoms();
  if (in.size() <= max_points) return false;
  std::vector<double> costs(in.size() - 1);
  for (std::size_t i = 0; i + 1 < in.size(); ++i)
    costs[i] = merge_cost(in, i);
  std::sort(costs.begin(), costs.end());
  const std::size_t to_remove = in.size() - max_points;
  return costs[to_remove - 1] == costs[to_remove];
}

/// Checks coalesce_up against the reference at one budget; returns
/// whether the cut split a tie there.
bool expect_reference_coalesce(const DiscreteDistribution& d,
                               std::size_t max_points) {
  EXPECT_EQ(d.coalesce_up(max_points), reference_coalesce_up(d, max_points))
      << "n = " << d.size() << ", max_points = " << max_points;
  return tie_at_cut(d, max_points);
}

/// n atoms with gaps in [1, max_gap]. `levels` = 0 draws any probability;
/// otherwise probabilities take `levels` distinct values, so with small
/// gaps equal merge costs are common, as on penalty lattices.
DiscreteDistribution random_support(Rng& rng, std::size_t n, Cycles max_gap,
                                    std::uint64_t levels) {
  std::vector<ProbabilityAtom> atoms(n);
  Cycles value = static_cast<Cycles>(rng.next_below(100));
  double mass = 0.0;
  for (ProbabilityAtom& atom : atoms) {
    atom.value = value;
    atom.probability = levels == 0
                           ? rng.next_double() + 1e-3
                           : static_cast<double>(1 + rng.next_below(levels));
    mass += atom.probability;
    value += 1 + static_cast<Cycles>(
                     rng.next_below(static_cast<std::uint64_t>(max_gap)));
  }
  for (ProbabilityAtom& atom : atoms) atom.probability /= mass;
  return DiscreteDistribution::from_canonical_atoms(std::move(atoms));
}

TEST(Distribution, CoalesceSelectionMatchesFullSortOnRandomSupports) {
  // Supports from 3 atoms to a quarter million, each at budgets 2, 2048,
  // n - 1 and a random one; continuous probabilities (ties are rare) and
  // five probability levels on gaps of 1..3 (ties are everywhere).
  Rng rng(0xc0a1e5ce);
  std::vector<std::size_t> sizes = {3,   4,    5,    16,    17,    18,
                                    100, 2049, 2050, 10000, 65537, 250000};
  for (int extra = 0; extra < 20; ++extra)
    sizes.push_back(3 + rng.next_below(5000));
  std::size_t cuts = 0, tied = 0;
  for (const std::size_t n : sizes) {
    for (const std::uint64_t levels : {0, 5}) {
      const DiscreteDistribution d =
          random_support(rng, n, levels == 0 ? 1000 : 3, levels);
      const std::size_t random_budget = 2 + rng.next_below(n - 2);
      for (const std::size_t max_points :
           {std::size_t{2}, std::size_t{2048}, n - 1, random_budget}) {
        if (max_points >= n) continue;
        ++cuts;
        if (expect_reference_coalesce(d, max_points)) ++tied;
      }
    }
  }
  // Both paths ran: a clean cut and a cut through tied merges.
  EXPECT_GT(tied, 0u);
  EXPECT_LT(tied, cuts);
}

TEST(Distribution, CoalesceSelectionKeepsSortTieOrderWhenAllCostsTie) {
  // Uniform probabilities on an evenly spaced support: every merge costs
  // the same, so every cut splits a tie. libstdc++ insertion-sorts ranges
  // of 16 or fewer, which keeps ties in index order; from 17 merges (18
  // atoms) on its introsort partitions reorder them, and the lowest-index
  // rule gives different bytes.
  for (const std::size_t n : {17, 18, 19, 31, 64, 257, 1000, 4099}) {
    std::vector<ProbabilityAtom> atoms;
    for (std::size_t i = 0; i < n; ++i)
      atoms.push_back(
          {static_cast<Cycles>(10 * i), 1.0 / static_cast<double>(n)});
    const auto d = DiscreteDistribution::from_canonical_atoms(std::move(atoms));
    std::size_t index_order_differs = 0;
    for (const std::size_t max_points :
         {std::size_t{2}, std::size_t{3}, n / 2, n - 2, n - 1}) {
      ASSERT_TRUE(expect_reference_coalesce(d, max_points));
      if (reference_coalesce_up(d, max_points) !=
          reference_coalesce_up(d, max_points, /*stable_ties=*/true))
        ++index_order_differs;
    }
    if (n - 1 > 16) {
      EXPECT_GT(index_order_differs, 0u) << "n = " << n;
    }
  }
}

TEST(Distribution, CoalesceSelectionKeepsSortTieOrderAcrossTheCut) {
  // Unit gaps make each merge cost its atom's probability. Merges fall in
  // three classes at random positions — cheaper than t, exactly t, dearer
  // than t — and the cut lands strictly inside the tied class. The masses
  // are left unnormalized: the selection never reads the total.
  Rng rng(0x71ec07);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 20 + rng.next_below(3000);
    constexpr double t = 0.25;
    std::vector<ProbabilityAtom> atoms;
    std::size_t below = 0, at = 0;
    for (std::size_t i = 0; i < n; ++i) {
      double p = t;  // the top atom enters no merge cost
      if (i + 1 < n) {
        switch (rng.next_below(3)) {
          case 0:
            p = t * (0.1 + 0.8 * rng.next_double());
            ++below;
            break;
          case 1:
            ++at;
            break;
          default:
            p = t * (1.2 + rng.next_double());
        }
      }
      atoms.push_back({static_cast<Cycles>(i), p});
    }
    if (at < 2) continue;
    const auto d = DiscreteDistribution::from_canonical_atoms(std::move(atoms));
    const std::size_t to_remove = below + 1 + rng.next_below(at - 1);
    ASSERT_TRUE(expect_reference_coalesce(d, n - to_remove));
  }
}

TEST(Distribution, CoalesceSelectionOnNearDenormalCosts) {
  // Tiny probabilities whose costs collapse onto equal values: denormal
  // multiples k * denorm_min times gaps g give exactly k * g * denorm_min,
  // so (2, 3), (3, 2) and (6, 1) cost the same; just above DBL_MIN,
  // neighbouring probabilities times a gap round onto one double. A
  // probability-1 top atom keeps the total mass at 1.
  Rng rng(0xde40);
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double normal_min = std::numeric_limits<double>::min();
  std::size_t tied = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 17 + rng.next_below(2000);
    std::vector<ProbabilityAtom> atoms;
    Cycles value = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double k = static_cast<double>(1 + rng.next_below(12));
      const double p = trial % 2 == 0
                           ? k * denorm
                           : normal_min * (1.0 + k * 0x1p-52);
      atoms.push_back({value, p});
      value += 1 + static_cast<Cycles>(rng.next_below(6));
    }
    atoms.push_back({value, 1.0});
    const auto d = DiscreteDistribution::from_canonical_atoms(std::move(atoms));
    for (const std::size_t max_points :
         {std::size_t{2}, n / 2, 2 + rng.next_below(n - 2)})
      if (expect_reference_coalesce(d, max_points)) ++tied;
  }
  EXPECT_GT(tied, 0u);
}

/// One domain's per-set penalty distributions rebuilt from its FMM: per
/// cache set, atoms ceil(misses) * miss_penalty with probabilities pwf[f]
/// (paper Fig. 1.b).
std::vector<DiscreteDistribution> per_set_penalties(
    const PwcetPipeline& pipeline, std::size_t domain,
    const FaultModel& faults, Mechanism mechanism) {
  const FaultMissMap& fmm = pipeline.fmm(domain).of(mechanism);
  const Cycles miss_penalty = pipeline.domain(domain).config().miss_penalty;
  const std::vector<Probability> pwf =
      faults.way_failure_pmf(pipeline.domain(domain).config(), mechanism);
  std::vector<DiscreteDistribution> per_set;
  for (const std::vector<double>& row : fmm.misses) {
    std::vector<ProbabilityAtom> atoms;
    for (std::size_t f = 0; f < pwf.size(); ++f)
      atoms.push_back({static_cast<Cycles>(std::ceil(row[f] - 1e-6) *
                                           static_cast<double>(miss_penalty)),
                       pwf[f]});
    per_set.push_back(DiscreteDistribution::from_atoms(std::move(atoms)));
  }
  return per_set;
}

/// One domain's penalty distribution: its per-set penalties combined by
/// the pairwise tree.
DiscreteDistribution domain_penalty(const PwcetPipeline& pipeline,
                                    std::size_t domain,
                                    const FaultModel& faults,
                                    Mechanism mechanism) {
  return convolve_all_tree(
      per_set_penalties(pipeline, domain, faults, mechanism), 2048);
}

CacheConfig cache_geometry(std::uint32_t sets, std::uint32_t ways,
                           std::uint32_t line_bytes) {
  CacheConfig config;
  config.sets = sets;
  config.ways = ways;
  config.line_bytes = line_bytes;
  return config;
}

TEST(Distribution, ConvolveMatchesReferenceOnEveryStepOfDeepTailTrees) {
  // ud and ludcmp on a 32x4x8 icache under no mechanism: at pfail 6.1e-13
  // (the 45 nm value) and 1e-9 the penalty tails fall below 2^-1022, so
  // the pairwise tree's upper steps multiply subnormal and zero-rounding
  // products. Every step is checked against the reference.
  std::size_t band = 0, zero = 0;
  for (const char* task : {"ud", "ludcmp"}) {
    const Program program = workloads::build(task);
    PwcetOptions options;
    options.engine = WcetEngine::kTree;
    const PwcetPipeline pipeline(
        program,
        {std::make_shared<const IcacheDomain>(cache_geometry(32, 4, 8))},
        options);
    for (const double pfail : {6.1e-13, 1e-9}) {
      const std::vector<DiscreteDistribution> parts = per_set_penalties(
          pipeline, 0, FaultModel(pfail), Mechanism::kNone);
      std::vector<DiscreteDistribution> level = parts;
      while (level.size() > 1) {
        std::vector<DiscreteDistribution> next;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
          const DiscreteDistribution& x = level[i];
          const DiscreteDistribution& y = level[i + 1];
          for (const ProbabilityAtom& p : x.atoms())
            for (const ProbabilityAtom& q : y.atoms()) {
              const std::uint32_t sum = biased_exponent(p.probability) +
                                        biased_exponent(q.probability);
              band += sum > 969 && sum < 1024;
              zero += sum <= 969;
            }
          const DiscreteDistribution product = x.convolve(y);
          ASSERT_EQ(product, reference_convolve(x, y))
              << task << " at pfail " << pfail << ", level size "
              << level.size() << ", pair " << i / 2;
          next.push_back(product.coalesce_up(2048));
        }
        if (level.size() % 2 != 0) next.push_back(level.back());
        level = std::move(next);
      }
      EXPECT_EQ(level.front().coalesce_up(2048),
                convolve_all_tree(parts, 2048));
    }
  }
  EXPECT_GT(band, 0u);
  EXPECT_GT(zero, 0u);
}

TEST(Distribution, CoalesceSelectionOnACrossDomainFold) {
  // Real fold inputs: crc on a 16x4x16 icache, an 8x4x16 dcache and a
  // 64x4x32 L2 (miss penalty 80) at pfail 1e-4, as in campaignbench's
  // multi_domain workload. Folding the rebuilt domain penalties through
  // the reference reproduces the pipeline's own answer, so these are the
  // inputs its cross-domain fold coalesces.
  CacheConfig l2 = cache_geometry(64, 4, 32);
  l2.hit_latency = 0;
  l2.miss_penalty = 80;
  const Program program = workloads::build("crc");
  PwcetOptions options;
  options.engine = WcetEngine::kTree;
  const PwcetPipeline pipeline(
      program,
      {std::make_shared<const IcacheDomain>(cache_geometry(16, 4, 16)),
       std::make_shared<const DcacheDomain>(cache_geometry(8, 4, 16)),
       std::make_shared<const L2Domain>(l2)},
      options);
  const FaultModel faults(1e-4);
  std::size_t largest = 0;
  for (const Mechanism mechanism :
       {Mechanism::kNone, Mechanism::kReliableWay,
        Mechanism::kSharedReliableBuffer}) {
    DiscreteDistribution penalty =
        domain_penalty(pipeline, 0, faults, mechanism);
    for (std::size_t i = 1; i < pipeline.domain_count(); ++i) {
      const DiscreteDistribution input =
          penalty.convolve(domain_penalty(pipeline, i, faults, mechanism));
      largest = std::max(largest, input.size());
      penalty = reference_coalesce_up(input, 2048);
      ASSERT_EQ(input.coalesce_up(2048), penalty);
    }
    EXPECT_EQ(penalty, pipeline.analyze(faults, mechanism).penalty);
  }
  EXPECT_GT(largest, 50000u);
}

}  // namespace
}  // namespace pwcet
