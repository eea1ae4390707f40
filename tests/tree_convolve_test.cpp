// Tests for the pairwise (tree-reduction) convolution against the serial
// left fold and against the exact (uncoalesced) convolution: with no
// coalescing pressure the two orders agree exactly; under coalescing the
// tree result must keep the conservative-upper-bound contract of
// prob/discrete_distribution.hpp (exceedance >= exact, pointwise) and
// should stay at least as tight as the fold on long chains. The exact
// reference is accumulated here, without DiscreteDistribution::convolve,
// so a fault in convolve cannot move both sides of a dominance check.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "prob/binomial.hpp"
#include "prob/discrete_distribution.hpp"
#include "support/rng.hpp"

namespace pwcet {
namespace {

/// Random small distribution: 2-5 atoms, values in [0, 400], normalized.
DiscreteDistribution random_part(Rng& rng) {
  const std::size_t atoms = 2 + rng.next_below(4);
  std::vector<ProbabilityAtom> raw;
  double mass = 0.0;
  for (std::size_t i = 0; i < atoms; ++i) {
    const double weight = rng.next_double() + 1e-3;
    raw.push_back({static_cast<Cycles>(rng.next_below(401)), weight});
    mass += weight;
  }
  for (ProbabilityAtom& atom : raw) atom.probability /= mass;
  return DiscreteDistribution::from_atoms(std::move(raw));
}

std::vector<DiscreteDistribution> random_parts(Rng& rng, std::size_t count) {
  std::vector<DiscreteDistribution> parts;
  parts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) parts.push_back(random_part(rng));
  return parts;
}

/// A cache set's penalty shape (paper Fig. 1.b): the binomial pmf of its
/// faulty ways (W = 4, pbf 1e-6..1e-2) on non-decreasing multiples of a
/// 100-cycle miss penalty, so the tail atoms reach far below 1e-15.
DiscreteDistribution penalty_part(Rng& rng) {
  constexpr Probability kPbf[] = {1e-6, 1e-4, 1e-2};
  const std::vector<Probability> pwf =
      binomial_pmf_vector(4, kPbf[rng.next_below(3)]);
  std::vector<ProbabilityAtom> atoms;
  Cycles misses = 0;
  for (const Probability p : pwf) {
    atoms.push_back({100 * misses, p});
    misses += static_cast<Cycles>(rng.next_below(4));
  }
  return DiscreteDistribution::from_atoms(std::move(atoms));
}

std::vector<DiscreteDistribution> penalty_parts(Rng& rng, std::size_t count) {
  std::vector<DiscreteDistribution> parts;
  parts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) parts.push_back(penalty_part(rng));
  return parts;
}

constexpr std::size_t kNoCoalescing = 1u << 20;

/// The exact distribution of the sum of independent `parts`: every product
/// of atom probabilities accumulated per value in long double, by brute
/// force over the value map.
DiscreteDistribution exact_sum(const std::vector<DiscreteDistribution>& parts) {
  std::map<Cycles, long double> sum{{0, 1.0L}};
  for (const DiscreteDistribution& part : parts) {
    std::map<Cycles, long double> next;
    for (const auto& [value, probability] : sum)
      for (const ProbabilityAtom& atom : part.atoms())
        next[value + atom.value] += probability * atom.probability;
    sum = std::move(next);
  }
  std::vector<ProbabilityAtom> atoms;
  atoms.reserve(sum.size());
  for (const auto& [value, probability] : sum)
    atoms.push_back({value, static_cast<Probability>(probability)});
  return DiscreteDistribution::from_atoms(std::move(atoms));
}

TEST(TreeConvolve, MatchesFoldExactlyWithoutCoalescing) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const auto parts = random_parts(rng, 1 + rng.next_below(10));
    const auto fold = convolve_all(parts, kNoCoalescing);
    const auto tree = convolve_all_tree(parts, kNoCoalescing);
    // Convolution is associative; without coalescing both orders give the
    // same support. Compare supports exactly and probabilities to within
    // reordering round-off.
    ASSERT_EQ(tree.size(), fold.size());
    for (std::size_t i = 0; i < tree.size(); ++i) {
      EXPECT_EQ(tree.atoms()[i].value, fold.atoms()[i].value);
      EXPECT_NEAR(tree.atoms()[i].probability, fold.atoms()[i].probability,
                  1e-12);
    }
  }
}

TEST(TreeConvolve, MatchesExactSumWithoutCoalescing) {
  // The convolution itself against the brute-force sum: with no coalescing
  // the tree keeps every support point, and every probability, down to the
  // smallest tail atom, agrees to a relative 1e-12. Half the trials sum
  // penalty-shaped parts, whose tails reach the paper's 1e-15 and below.
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t count = 1 + rng.next_below(12);
    const auto parts = trial % 2 == 0 ? random_parts(rng, count)
                                      : penalty_parts(rng, count);
    const auto exact = exact_sum(parts);
    const auto tree = convolve_all_tree(parts, kNoCoalescing);
    ASSERT_EQ(tree.size(), exact.size()) << "trial " << trial;
    for (std::size_t i = 0; i < tree.size(); ++i) {
      EXPECT_EQ(tree.atoms()[i].value, exact.atoms()[i].value);
      EXPECT_NEAR(tree.atoms()[i].probability, exact.atoms()[i].probability,
                  1e-12 * exact.atoms()[i].probability)
          << "trial " << trial << " value " << exact.atoms()[i].value;
    }
  }
}

TEST(TreeConvolve, DominatesExactUnderCoalescing) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t count = 2 + rng.next_below(12);
    const auto parts = trial % 2 == 0 ? random_parts(rng, count)
                                      : penalty_parts(rng, count);
    const auto exact = exact_sum(parts);
    for (const std::size_t max_points : {8u, 16u, 64u}) {
      const auto tree = convolve_all_tree(parts, max_points);
      EXPECT_LE(tree.size(), max_points);
      // The coalescing contract: the kept exceedance function is a
      // pointwise upper bound of the exact one.
      EXPECT_TRUE(tree.dominates(exact, 1e-9, 1e-9))
          << "trial " << trial << " max_points " << max_points;
      // Mass moves, it is never created or destroyed.
      EXPECT_NEAR(tree.total_mass(), 1.0, 1e-9);
      EXPECT_GE(tree.mean(), exact.mean() - 1e-9);
      // The maximum is preserved exactly (coalescing keeps the top atom).
      EXPECT_EQ(tree.max_value(), exact.max_value());
    }
  }
}

TEST(TreeConvolve, FoldAlsoDominatesExact) {
  // Sanity for the comparison baseline: the serial fold honours the same
  // contract, so either reduction order is sound for pWCET bounds.
  Rng rng(11);
  const auto parts = random_parts(rng, 12);
  const auto exact = exact_sum(parts);
  const auto fold = convolve_all(parts, 16);
  EXPECT_TRUE(fold.dominates(exact, 1e-9, 1e-9));
}

TEST(TreeConvolve, TreeQuantilesNoLooserThanFoldOnLongChains) {
  // O(log n) coalescing steps per leaf-to-root path (tree) vs O(n) on the
  // fold's spine: on long chains the tree's tail quantiles should not be
  // (materially) more conservative. Both dominate the exact result, so
  // compare their 1e-9..1e-15 quantiles directly.
  Rng rng(13);
  double tree_total = 0.0, fold_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto parts = random_parts(rng, 32);
    const auto tree = convolve_all_tree(parts, 64);
    const auto fold = convolve_all(parts, 64);
    for (const double p : {1e-9, 1e-12, 1e-15}) {
      tree_total += static_cast<double>(tree.quantile_exceedance(p));
      fold_total += static_cast<double>(fold.quantile_exceedance(p));
    }
  }
  EXPECT_LE(tree_total, fold_total * 1.001);
}

TEST(TreeConvolve, EdgeCases) {
  // Empty input: neutral element (all mass at zero).
  const auto empty = convolve_all_tree({}, 16);
  EXPECT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty.max_value(), 0);

  // Single part: returned as-is (subject to the budget).
  Rng rng(3);
  const auto part = random_part(rng);
  const auto single = convolve_all_tree({part}, kNoCoalescing);
  EXPECT_EQ(single, part);

  // Odd count: the unpaired distribution must not be dropped.
  const std::vector<DiscreteDistribution> three{
      DiscreteDistribution::degenerate(1),
      DiscreteDistribution::degenerate(2),
      DiscreteDistribution::degenerate(4)};
  const auto sum = convolve_all_tree(three, kNoCoalescing);
  EXPECT_EQ(sum.size(), 1u);
  EXPECT_EQ(sum.max_value(), 7);
}

}  // namespace
}  // namespace pwcet
