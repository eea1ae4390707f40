// IPET (Implicit Path Enumeration Technique) WCET calculation (paper
// §II-B.2, Li & Malik).
//
// Variables are CFG edge execution counts plus one virtual entry edge fixed
// to 1. Constraints: flow conservation per block and one loop-bound
// constraint per loop (sum of back edges <= bound * sum of entry edges).
// The constraint system is built once per program; each cost model is then
// maximized by re-optimizing the shared simplex tableau (one phase-1 per
// program, one phase-2 per objective) — the moral equivalent of handing
// CPLEX a sequence of objectives over one model.
#pragma once

#include <vector>

#include "cfg/program.hpp"
#include "ilp/simplex.hpp"
#include "wcet/cost_model.hpp"

namespace pwcet {

class IpetCalculator {
 public:
  explicit IpetCalculator(const Program& program);

  /// Maximizes the cost model over all feasible flows and returns the
  /// bound, root entry cost included. The LP relaxation optimum is
  /// returned: a sound upper bound on the integer optimum, and exact
  /// whenever the relaxation is integral (the common case for IPET; the
  /// test suite cross-checks against the exact loop-tree engine).
  double maximize(const CostModel& model);

 private:
  std::vector<double> objective_vector(const CostModel& model) const;

  const Program& program_;
  SimplexSolver solver_;
};

}  // namespace pwcet
