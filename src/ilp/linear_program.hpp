// Constraint system of the IPET formulation (wcet/ipet.hpp), the in-house
// stand-in for the paper's CPLEX 12.5 model.
//
// Constraints are linear, over non-negative variables. A program carries
// no objective: the IPET hands each objective to
// `SimplexSolver::reoptimize` and maximizes a sequence of them over one
// constraint system. Integrality is not modelled: the LP relaxation
// optimum is a sound upper bound on the integer maximum (relaxing
// integrality can only raise a maximum).
#pragma once

#include <vector>

#include "support/types.hpp"

namespace pwcet {

using VarId = std::int32_t;

enum class ConstraintSense : std::uint8_t { kLe, kGe, kEq };

/// One linear constraint: sum(coef * var) <sense> rhs.
struct LinearConstraint {
  std::vector<std::pair<VarId, double>> terms;
  ConstraintSense sense = ConstraintSense::kLe;
  double rhs = 0.0;
};

/// Constraints over variables x >= 0.
class LinearProgram {
 public:
  /// Adds a variable; returns its id.
  VarId add_variable() { return static_cast<VarId>(variable_count_++); }

  void add_constraint(LinearConstraint c);

  std::size_t variable_count() const { return variable_count_; }
  std::size_t constraint_count() const { return constraints_.size(); }
  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }

 private:
  std::size_t variable_count_ = 0;
  std::vector<LinearConstraint> constraints_;
};

enum class SolveStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

struct LpSolution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
};

}  // namespace pwcet
