// Discrete probability distributions over integer cycle penalties.
//
// The pWCET analysis represents the fault-induced penalty of each cache set
// as a small discrete distribution (paper Fig. 1.b) and combines independent
// sets by convolution. Supports are exact 64-bit integers; probabilities are
// doubles. To keep the support size bounded across 10s of convolutions, a
// *conservative coalescing* step merges points by moving probability mass
// onto the larger value only, so the complementary CDF (exceedance function)
// of the stored distribution is always a pointwise upper bound of the exact
// one — the sound direction for WCET estimation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace pwcet {

/// One atom of a discrete distribution.
struct ProbabilityAtom {
  Cycles value = 0;
  Probability probability = 0.0;

  friend bool operator==(const ProbabilityAtom&,
                         const ProbabilityAtom&) = default;
};

/// Discrete distribution with integer support, kept sorted by value.
class DiscreteDistribution {
 public:
  /// The distribution concentrated at zero (neutral element of convolution).
  DiscreteDistribution();

  /// Builds from atoms; merges duplicate values, drops zero-probability
  /// atoms, and checks the total mass is 1 within `mass_tolerance`.
  static DiscreteDistribution from_atoms(std::vector<ProbabilityAtom> atoms);

  /// Single-point distribution.
  static DiscreteDistribution degenerate(Cycles value);

  /// Rebuilds a distribution from atoms already in canonical form
  /// (strictly increasing values, all probabilities positive) without
  /// merging or mass checking — the exact-round-trip constructor used by
  /// the artifact store (store/artifact_store.hpp), where the atoms are a
  /// verbatim copy of a previously stored canonical distribution and any
  /// renormalization would break the byte-identity contract. Canonical
  /// form is a precondition (aborts on violation); untrusted input must
  /// be validated by the caller first.
  static DiscreteDistribution from_canonical_atoms(
      std::vector<ProbabilityAtom> atoms);

  const std::vector<ProbabilityAtom>& atoms() const { return atoms_; }
  std::size_t size() const { return atoms_.size(); }
  Cycles min_value() const;
  Cycles max_value() const;

  /// Total probability mass (should be ~1; convolution preserves it).
  Probability total_mass() const;

  /// Mean of the distribution.
  double mean() const;

  /// P[X > value] (complementary CDF, the exceedance function of Fig. 3).
  Probability exceedance(Cycles value) const;

  /// Smallest value v such that P[X > v] <= p. This is the pWCET query:
  /// "the value the random variable exceeds with probability at most p".
  Cycles quantile_exceedance(Probability p) const;

  /// Convolution with an independent distribution (sum of the variables).
  DiscreteDistribution convolve(const DiscreteDistribution& other) const;

  /// Conservatively reduces the support to at most `max_points` atoms by
  /// merging adjacent atoms into the one with the *larger* value. The result
  /// stochastically dominates the original (exceedance is >= pointwise).
  ///
  /// Selection rule, part of the byte contract: of the n - 1 upward merges
  /// it performs the n - `max_points` cheapest, by cost p_i * gap_i
  /// (gap_i = value(i+1) - value(i)). Ties at the cut resolve as the
  /// historical std::sort of merge indices by cost ordered them.
  /// tests/prob_test.cpp pins this against a copy of that full sort.
  DiscreteDistribution coalesce_up(std::size_t max_points) const;

  /// Shifts every support value by a constant (e.g. adding the fault-free
  /// WCET to a penalty distribution).
  DiscreteDistribution shift(Cycles offset) const;

  /// True if `this` stochastically dominates `other`: for all v,
  /// exceedance_this(v) + min(tolerance, relative * exceedance_other(v))
  /// >= exceedance_other(v). The default relative bound is unlimited,
  /// which leaves the absolute tolerance alone; a finite one keeps the
  /// check strict in tails far below the absolute tolerance.
  bool dominates(const DiscreteDistribution& other,
                 Probability tolerance = 1e-12,
                 double relative =
                     std::numeric_limits<double>::infinity()) const;

  friend bool operator==(const DiscreteDistribution&,
                         const DiscreteDistribution&) = default;

 private:
  explicit DiscreteDistribution(std::vector<ProbabilityAtom> atoms)
      : atoms_(std::move(atoms)) {}

  // Sorted by value, strictly increasing, all probabilities > 0.
  std::vector<ProbabilityAtom> atoms_;
};

/// Convolves a whole collection, coalescing intermediate results to
/// `max_points` after each step (the per-set penalty pipeline of Fig. 1.b).
DiscreteDistribution convolve_all(
    const std::vector<DiscreteDistribution>& parts, std::size_t max_points);

class ThreadPool;

/// Pairwise (tree-shaped) variant of convolve_all: each round convolves
/// fixed neighbour pairs (0,1), (2,3), ... and coalesces, halving the list
/// until one distribution remains. Two advantages over the left fold:
/// each round's pairings are independent, so with a `pool`
/// (engine/thread_pool.hpp) they run concurrently — bit-identical to the
/// serial result at any thread count, since the tree shape is fixed; and
/// only O(log n) coalescing steps stack up on any leaf-to-root path (vs
/// O(n) on the fold's spine), so the accumulated upper-bound slack is
/// smaller. Every merge only moves probability mass onto larger values, so
/// the result still stochastically dominates the exact convolution.
DiscreteDistribution convolve_all_tree(
    const std::vector<DiscreteDistribution>& parts, std::size_t max_points,
    ThreadPool* pool = nullptr);

/// Deduplicating variant of convolve_all_tree for inputs given as
/// (distinct distributions, per-leaf id) — the shape the re-weighting
/// bundle produces, where many cache sets share one penalty distribution.
/// The tree has exactly the same shape as convolve_all_tree applied to the
/// expanded leaf list `distinct[ids[0]], distinct[ids[1]], ...`, but each
/// *distinct* (left id, right id) pair per round is convolved only once
/// and the result shared by every position holding that pair. Convolution
/// and coalescing are deterministic, so equal id pairs produce equal
/// results and the output is bit-identical to the non-deduplicating tree.
DiscreteDistribution convolve_all_tree_shared(
    const std::vector<DiscreteDistribution>& distinct,
    const std::vector<std::uint32_t>& ids, std::size_t max_points,
    ThreadPool* pool = nullptr);

}  // namespace pwcet
