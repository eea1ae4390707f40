#include "prob/discrete_distribution.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <utility>

#include "engine/thread_pool.hpp"
#include "support/contracts.hpp"

namespace pwcet {
namespace {

constexpr Probability kMassTolerance = 1e-9;

/// Upper bound on the dense accumulator of `convolve` (doubles, so 32 MiB
/// at the cap). Above it — or when the support is too sparse for a dense
/// array to pay off — convolution falls back to the streaming k-way merge.
constexpr std::uint64_t kDenseBucketCap = std::uint64_t{1} << 22;

/// Products of two nonnegative doubles, by the sum E of their biased
/// exponents (the bits above the 52-bit fraction; 0 for subnormals). A
/// factor with exponent e is below 2^(e - 1022), so the product is below
/// 2^(E - 2044): below 2^-1075 for E <= kZeroProductSum, where it rounds to
/// +0.0, and below 2^-1021 for E < kNormalProductSum. Two normal factors
/// give at least 2^(E - 2046), a normal product for E >= kNormalProductSum.
/// Between the two bounds a hardware multiply whose result is subnormal
/// takes a microcode assist on x86 (~50x a normal one), so those products
/// are rounded in integers instead (tiny_product).
constexpr std::uint32_t kNormalProductSum = 1024;
constexpr std::uint32_t kZeroProductSum = 969;

std::uint32_t biased_exponent(double x) {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 52);
}

/// A nonnegative finite double as significand * 2^(exponent - 1075).
struct Unpacked {
  std::uint64_t significand;
  std::uint32_t exponent;
};

Unpacked unpack(double x) {
  constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const auto exponent = static_cast<std::uint32_t>(bits >> 52);
  const std::uint64_t fraction = bits & (kHidden - 1);
  // Subnormals scale like exponent 1 and have no hidden bit.
  return exponent == 0 ? Unpacked{fraction, 1}
                       : Unpacked{fraction | kHidden, exponent};
}

/// x * y, bit for bit as IEEE round-to-nearest-even multiplies it, for
/// factors whose biased exponents sum to kZeroProductSum + 1 ..
/// kNormalProductSum - 1. The product is below 2^-1021, where the doubles
/// are the multiples of 2^-1074, so rounding is half to even onto that
/// grid; the 106-bit significand product fits one unsigned __int128.
/// Below 2^-1021 the bits of k * 2^-1074 are k itself (subnormals, then
/// exponent field 1 from k = 2^52, and 2^53 is 2^-1021), which covers the
/// round-up into the normal range too.
double tiny_product(Unpacked x, Unpacked y) {
  using u128 = unsigned __int128;
  // x * y = sx * sy * 2^(ex + ey - 2150) = sx * sy * 2^-shift * 2^-1074.
  const std::uint32_t shift = 1076 - x.exponent - y.exponent;  // 51..106
  const u128 product = static_cast<u128>(x.significand) * y.significand;
  auto grid = static_cast<std::uint64_t>(product >> shift);
  const u128 rest = product - (static_cast<u128>(grid) << shift);
  const u128 half = u128{1} << (shift - 1);
  if (rest > half || (rest == half && (grid & 1) != 0)) ++grid;
  return std::bit_cast<double>(grid);
}

/// x * y for nonnegative doubles, equal to the hardware product.
double product(double x, double y) {
  const std::uint32_t sum = biased_exponent(x) + biased_exponent(y);
  if (sum >= kNormalProductSum) return x * y;
  if (sum <= kZeroProductSum) return 0.0;
  return tiny_product(unpack(x), unpack(y));
}

std::uint32_t min_exponent(const std::vector<ProbabilityAtom>& atoms) {
  std::uint32_t least = std::numeric_limits<std::uint32_t>::max();
  for (const ProbabilityAtom& atom : atoms)
    least = std::min(least, biased_exponent(atom.probability));
  return least;
}

std::vector<ProbabilityAtom> normalize_atoms(
    std::vector<ProbabilityAtom> atoms) {
  std::sort(atoms.begin(), atoms.end(),
            [](const ProbabilityAtom& a, const ProbabilityAtom& b) {
              return a.value < b.value;
            });
  std::vector<ProbabilityAtom> merged;
  merged.reserve(atoms.size());
  for (const auto& atom : atoms) {
    PWCET_EXPECTS(atom.probability >= 0.0);
    if (atom.probability == 0.0) continue;
    if (!merged.empty() && merged.back().value == atom.value) {
      merged.back().probability += atom.probability;
    } else {
      merged.push_back(atom);
    }
  }
  return merged;
}

/// Marks the `to_remove` atoms (never the last) whose upward merges are
/// cheapest, by cost probability(i) * (value(i+1) - value(i)) — exactly the
/// first `to_remove` entries of the historical index sort by that cost.
/// A selection finds the cut cost in O(n). When no other merge shares it,
/// the marked set is {cost <= cut}, which every sort puts first. A tie
/// straddling the cut needs the historical std::sort itself: std::sort is
/// not stable, and only its own run says which tied merges it put first.
/// Either way the working memory is one 8-byte array per atom, never two
/// at once.
std::vector<bool> cheapest_merges(const std::vector<ProbabilityAtom>& atoms,
                                  std::size_t to_remove) {
  const std::size_t n = atoms.size();
  const auto cost = [&atoms](std::size_t i) {
    return atoms[i].probability *
           static_cast<double>(atoms[i + 1].value - atoms[i].value);
  };
  std::vector<bool> marked(n, false);
  double cut = 0.0;
  bool tie_at_cut = false;
  {
    std::vector<double> costs(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) costs[i] = cost(i);
    const auto nth = costs.begin() + static_cast<std::ptrdiff_t>(to_remove - 1);
    std::nth_element(costs.begin(), nth, costs.end());
    cut = *nth;
    // Everything after nth is >= cut, so one more equal cost there means
    // more than to_remove merges cost <= cut.
    tie_at_cut = std::find(nth + 1, costs.end(), cut) != costs.end();
  }
  if (!tie_at_cut) {
    for (std::size_t i = 0; i + 1 < n; ++i) marked[i] = cost(i) <= cut;
    return marked;
  }
  std::vector<std::size_t> order(n - 1);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return cost(a) < cost(b); });
  for (std::size_t i = 0; i < to_remove; ++i) marked[order[i]] = true;
  return marked;
}

}  // namespace

DiscreteDistribution::DiscreteDistribution()
    : atoms_{{/*value=*/0, /*probability=*/1.0}} {}

DiscreteDistribution DiscreteDistribution::from_atoms(
    std::vector<ProbabilityAtom> atoms) {
  auto merged = normalize_atoms(std::move(atoms));
  PWCET_EXPECTS(!merged.empty());
  Probability mass = 0.0;
  for (const auto& a : merged) mass += a.probability;
  PWCET_EXPECTS(std::abs(mass - 1.0) <= kMassTolerance);
  return DiscreteDistribution(std::move(merged));
}

DiscreteDistribution DiscreteDistribution::degenerate(Cycles value) {
  return DiscreteDistribution({{value, 1.0}});
}

DiscreteDistribution DiscreteDistribution::from_canonical_atoms(
    std::vector<ProbabilityAtom> atoms) {
  PWCET_EXPECTS(!atoms.empty());
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    PWCET_EXPECTS(atoms[i].probability > 0.0);
    PWCET_EXPECTS(i == 0 || atoms[i - 1].value < atoms[i].value);
  }
  return DiscreteDistribution(std::move(atoms));
}

Cycles DiscreteDistribution::min_value() const { return atoms_.front().value; }

Cycles DiscreteDistribution::max_value() const { return atoms_.back().value; }

Probability DiscreteDistribution::total_mass() const {
  Probability mass = 0.0;
  for (const auto& a : atoms_) mass += a.probability;
  return mass;
}

double DiscreteDistribution::mean() const {
  double m = 0.0;
  for (const auto& a : atoms_)
    m += static_cast<double>(a.value) * a.probability;
  return m;
}

Probability DiscreteDistribution::exceedance(Cycles value) const {
  // Sum the tail from the largest value down so tiny tail atoms are not
  // absorbed by a large head mass.
  Probability tail = 0.0;
  for (auto it = atoms_.rbegin(); it != atoms_.rend(); ++it) {
    if (it->value <= value) break;
    tail += it->probability;
  }
  return tail;
}

Cycles DiscreteDistribution::quantile_exceedance(Probability p) const {
  PWCET_EXPECTS(p >= 0.0);
  // Let tail_k = P[X >= value_k]. The smallest v with P[X > v] <= p is
  // value_k for the largest k with tail_k > p: exceedance(value_k) drops to
  // tail_{k+1} <= p while any v < value_k still has exceedance >= tail_k.
  // Walk from the top accumulating tail mass until it first exceeds p.
  Probability tail = 0.0;
  for (auto it = atoms_.rbegin(); it != atoms_.rend(); ++it) {
    tail += it->probability;
    if (tail > p) return it->value;
  }
  // Total mass <= p: every value (even below the minimum) is exceeded with
  // probability <= p; the minimum of the support is a well-defined answer.
  return atoms_.front().value;
}

DiscreteDistribution DiscreteDistribution::convolve(
    const DiscreteDistribution& other) const {
  // Hot loop of the whole analysis (every set pair of every penalty
  // distribution funnels through here). Penalty supports live on a coarse
  // lattice — every atom value is a multiple of the domain's miss penalty
  // — so the n*m pair products collapse onto few distinct sums. The fast
  // path exploits that: accumulate products directly into a dense bucket
  // array indexed by (value - base) / stride, where stride is the gcd of
  // all support offsets. No product buffer, no sort — O(n*m)
  // multiply-adds plus one scan over the buckets.
  //
  // Bit-identity contract: the historical implementation generated the
  // products a-major/b-minor in hardware, stable-sorted them by value and
  // accumulated left to right, so each value's probabilities summed in
  // generation order. Both paths below preserve exactly that per-value
  // order — the dense path because each row a_i adds all its products
  // before row a_{i+1} starts and one row's products land in distinct
  // buckets (so the order within a row is free), the merge path because
  // the heap breaks value ties by row index. Each product equals the
  // hardware one: products that round to +0.0 are skipped, which leaves a
  // nonnegative sum unchanged, and products below 2^-1021 are rounded in
  // integers onto the 2^-1074 grid, as IEEE rounds them (see product()).
  // FTZ/DAZ are never set; with either, those products and sums would
  // flush to zero and change the bytes. So results are bit-identical to
  // the historical ones at every probability.
  const std::vector<ProbabilityAtom>& a = atoms_;
  const std::vector<ProbabilityAtom>& b = other.atoms_;
  const std::size_t n = a.size();
  const std::size_t m = b.size();

  // Lattice stride: gcd of every offset from the first atom, both inputs.
  Cycles stride = 0;
  for (std::size_t i = 1; i < n; ++i)
    stride = std::gcd(stride, a[i].value - a[0].value);
  for (std::size_t j = 1; j < m; ++j)
    stride = std::gcd(stride, b[j].value - b[0].value);
  if (stride == 0) stride = 1;  // both inputs degenerate
  const Cycles base = a.front().value + b.front().value;
  const std::uint64_t buckets =
      static_cast<std::uint64_t>(
          (a.back().value + b.back().value - base) / stride) +
      1;

  // Checked pair count: the product can overflow size_t for adversarially
  // wide inputs (the old code reserved n*m elements unchecked — an absurd
  // or wrapping allocation). Neither path below materializes the products,
  // so an overflowing count only steers the path choice.
  const bool pairs_overflow = n > std::numeric_limits<std::size_t>::max() / m;
  const std::uint64_t pairs =
      pairs_overflow ? std::numeric_limits<std::uint64_t>::max()
                     : static_cast<std::uint64_t>(n) * m;

  // Dense only when the bucket array is small in absolute terms and not
  // wastefully sparse relative to the work (a handful of atoms spread
  // over a huge gcd-1 range would scan mostly zeros).
  if (buckets <= kDenseBucketCap &&
      (buckets <= 4096 || buckets <= 4 * pairs)) {
    std::vector<double> acc(static_cast<std::size_t>(buckets), 0.0);
    const auto row_of = [&](std::size_t i) {
      return acc.data() +
             static_cast<std::size_t>((a[i].value - a[0].value) / stride);
    };
    const auto offset_of = [&](std::size_t j) {
      return static_cast<std::size_t>((b[j].value - b[0].value) / stride);
    };
    if (min_exponent(a) + min_exponent(b) >= kNormalProductSum) {
      // Every exponent sum is at least kNormalProductSum: multiply in
      // hardware.
      std::vector<double> pb(m);
      for (std::size_t j = 0; j < m; ++j) pb[j] = b[j].probability;
      // When b occupies every lattice point its bucket offsets are 0..m-1
      // and the inner loop is a contiguous multiply-add the compiler
      // vectorizes; otherwise scatter through precomputed offsets.
      const bool contiguous =
          b.back().value - b.front().value == stride * Cycles(m - 1);
      std::vector<std::size_t> off_b;
      if (!contiguous) {
        off_b.resize(m);
        for (std::size_t j = 0; j < m; ++j) off_b[j] = offset_of(j);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const double pa = a[i].probability;
        double* row = row_of(i);
        if (contiguous) {
          for (std::size_t j = 0; j < m; ++j) row[j] += pa * pb[j];
        } else {
          for (std::size_t j = 0; j < m; ++j) row[off_b[j]] += pa * pb[j];
        }
      }
    } else {
      // Some exponent sums fall below kNormalProductSum. Visit b by
      // descending exponent: each row then splits into a run multiplied
      // in hardware, a run rounded in integers and a run of zeros it
      // skips, cut at two binary-searched points, with no per-product
      // branch.
      std::vector<std::size_t> order(m);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&b](std::size_t x, std::size_t y) {
                         return biased_exponent(b[x].probability) >
                                biased_exponent(b[y].probability);
                       });
      std::vector<double> pb(m);
      std::vector<std::size_t> off_b(m);
      std::vector<std::uint32_t> exp_b(m);
      std::vector<Unpacked> unpacked_b(m);
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t j = order[k];
        pb[k] = b[j].probability;
        off_b[k] = offset_of(j);
        exp_b[k] = biased_exponent(pb[k]);
        unpacked_b[k] = unpack(pb[k]);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const double pa = a[i].probability;
        const std::uint32_t exp_a = biased_exponent(pa);
        const auto normal_end = static_cast<std::size_t>(
            std::partition_point(exp_b.begin(), exp_b.end(),
                                 [exp_a](std::uint32_t e) {
                                   return exp_a + e >= kNormalProductSum;
                                 }) -
            exp_b.begin());
        const auto tiny_end = static_cast<std::size_t>(
            std::partition_point(exp_b.begin() + normal_end, exp_b.end(),
                                 [exp_a](std::uint32_t e) {
                                   return exp_a + e > kZeroProductSum;
                                 }) -
            exp_b.begin());
        double* row = row_of(i);
        for (std::size_t k = 0; k < normal_end; ++k)
          row[off_b[k]] += pa * pb[k];
        const Unpacked unpacked_a = unpack(pa);
        for (std::size_t k = normal_end; k < tiny_end; ++k)
          row[off_b[k]] += tiny_product(unpacked_a, unpacked_b[k]);
      }
    }
    std::vector<ProbabilityAtom> atoms;
    atoms.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        buckets, pairs)));
    for (std::uint64_t k = 0; k < buckets; ++k)
      if (acc[static_cast<std::size_t>(k)] != 0.0)
        atoms.push_back({base + static_cast<Cycles>(k) * stride,
                         acc[static_cast<std::size_t>(k)]});
    return DiscreteDistribution(std::move(atoms));
  }

  // Streaming fallback: k-way merge of the n sorted rows {a_i + b_j : j}.
  // Within a row values are strictly increasing (b is), so each row has
  // one live head; ties across rows pop in row order = generation order.
  // O(n + output) memory regardless of n*m — this is the chunk-free
  // answer to the old unchecked reserve(n*m).
  struct Head {
    Cycles value;
    std::uint32_t row;
    std::uint32_t col;
  };
  const auto later = [](const Head& x, const Head& y) {
    return x.value != y.value ? x.value > y.value : x.row > y.row;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heap(later);
  for (std::size_t i = 0; i < n; ++i)
    heap.push({a[i].value + b[0].value, static_cast<std::uint32_t>(i), 0});
  std::vector<ProbabilityAtom> atoms;
  while (!heap.empty()) {
    const Head head = heap.top();
    heap.pop();
    // A zero product is skipped: the value's later products then start
    // its atom, and a value whose products are all zero gets none.
    const double p = product(a[head.row].probability,
                             b[head.col].probability);
    if (p != 0.0) {
      if (!atoms.empty() && atoms.back().value == head.value)
        atoms.back().probability += p;
      else
        atoms.push_back({head.value, p});
    }
    if (head.col + 1 < m)
      heap.push({a[head.row].value + b[head.col + 1].value, head.row,
                 head.col + 1});
  }
  return DiscreteDistribution(std::move(atoms));
}

DiscreteDistribution DiscreteDistribution::coalesce_up(
    std::size_t max_points) const {
  PWCET_EXPECTS(max_points >= 2);
  if (atoms_.size() <= max_points) return *this;

  // Each atom i (except the last) can be merged into its upward neighbour
  // at cost probability(i) * (value(i+1) - value(i)) — the probability mass
  // transported upward. Select the (n - max_points) cheapest merges, then
  // sweep once: runs of marked atoms roll their mass up into the next
  // unmarked atom. Mass only ever moves to larger values, so the result
  // stochastically dominates the input (sound for WCET exceedance bounds).
  const std::size_t n = atoms_.size();
  const std::vector<bool> merged_up = cheapest_merges(atoms_, n - max_points);

  std::vector<ProbabilityAtom> atoms;
  atoms.reserve(max_points);
  Probability carried = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (merged_up[i]) {
      carried += atoms_[i].probability;
    } else {
      atoms.push_back({atoms_[i].value, atoms_[i].probability + carried});
      carried = 0.0;
    }
  }
  PWCET_ASSERT(carried == 0.0);  // the last atom is never marked
  return DiscreteDistribution(std::move(atoms));
}

DiscreteDistribution DiscreteDistribution::shift(Cycles offset) const {
  std::vector<ProbabilityAtom> atoms = atoms_;
  for (auto& a : atoms) a.value += offset;
  return DiscreteDistribution(std::move(atoms));
}

bool DiscreteDistribution::dominates(const DiscreteDistribution& other,
                                     Probability tolerance,
                                     double relative) const {
  // Check at every support point of either distribution (the exceedance
  // functions are right-continuous step functions, so support points and
  // the points just before them cover all discontinuities).
  std::vector<Cycles> checkpoints;
  for (const auto& a : atoms_) {
    checkpoints.push_back(a.value);
    checkpoints.push_back(a.value - 1);
  }
  for (const auto& a : other.atoms_) {
    checkpoints.push_back(a.value);
    checkpoints.push_back(a.value - 1);
  }
  for (Cycles v : checkpoints) {
    const Probability theirs = other.exceedance(v);
    // An empty tail needs no slack (and an infinite relative bound must
    // not meet a zero).
    const Probability slack =
        theirs > 0.0 ? std::min(tolerance, relative * theirs) : tolerance;
    if (exceedance(v) + slack < theirs) return false;
  }
  return true;
}

DiscreteDistribution convolve_all(
    const std::vector<DiscreteDistribution>& parts, std::size_t max_points) {
  DiscreteDistribution acc;
  for (const auto& part : parts)
    acc = acc.convolve(part).coalesce_up(max_points);
  return acc;
}

DiscreteDistribution convolve_all_tree(
    const std::vector<DiscreteDistribution>& parts, std::size_t max_points,
    ThreadPool* pool) {
  if (parts.empty()) return DiscreteDistribution();
  std::vector<DiscreteDistribution> level = parts;
  while (level.size() > 1) {
    const std::size_t pairs = level.size() / 2;
    auto reduce_pair = [&](std::size_t i) {
      return level[2 * i].convolve(level[2 * i + 1]).coalesce_up(max_points);
    };
    std::vector<DiscreteDistribution> next;
    if (pool != nullptr) {
      next = pool->map_indexed(pairs, reduce_pair);
    } else {
      next.reserve(pairs + 1);
      for (std::size_t i = 0; i < pairs; ++i)
        next.push_back(reduce_pair(i));
    }
    if (level.size() % 2 != 0) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  // A single oversized input must still honour the budget.
  return level.front().coalesce_up(max_points);
}

DiscreteDistribution convolve_all_tree_shared(
    const std::vector<DiscreteDistribution>& distinct,
    const std::vector<std::uint32_t>& ids, std::size_t max_points,
    ThreadPool* pool) {
  if (ids.empty()) return DiscreteDistribution();
  for (const std::uint32_t id : ids) PWCET_EXPECTS(id < distinct.size());
  // Mirror convolve_all_tree exactly, but carry ids instead of values:
  // each round pairs positions (0,1), (2,3), ..., and positions holding
  // the same (left, right) id pair share one convolution. Work items are
  // numbered in first-occurrence order so the pooled map stays a pure
  // function of the input (deterministic at any thread count).
  std::vector<DiscreteDistribution> values = distinct;
  std::vector<std::uint32_t> level = ids;
  while (level.size() > 1) {
    const std::size_t pairs = level.size() / 2;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> seen;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> work;
    std::vector<std::uint32_t> next(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
      const std::pair<std::uint32_t, std::uint32_t> key{level[2 * i],
                                                        level[2 * i + 1]};
      const auto [it, inserted] =
          seen.emplace(key, static_cast<std::uint32_t>(work.size()));
      if (inserted) work.push_back(key);
      next[i] = it->second;
    }
    auto reduce_pair = [&](std::size_t w) {
      return values[work[w].first]
          .convolve(values[work[w].second])
          .coalesce_up(max_points);
    };
    std::vector<DiscreteDistribution> next_values;
    if (pool != nullptr) {
      next_values = pool->map_indexed(work.size(), reduce_pair);
    } else {
      next_values.reserve(work.size() + 1);
      for (std::size_t w = 0; w < work.size(); ++w)
        next_values.push_back(reduce_pair(w));
    }
    // An odd trailing position passes through unchanged, as a fresh id.
    if (level.size() % 2 != 0) {
      next.push_back(static_cast<std::uint32_t>(next_values.size()));
      next_values.push_back(std::move(values[level.back()]));
    }
    values = std::move(next_values);
    level = std::move(next);
  }
  return values[level.front()].coalesce_up(max_points);
}

}  // namespace pwcet
