// Linear/integer program model used by the IPET and FMM formulations.
//
// This module replaces the CPLEX 12.5 dependency of the paper's toolchain.
// Models are maximization problems over non-negative variables with linear
// constraints; integrality is requested per variable and enforced by the
// branch-and-bound layer (`ilp_solver`).
#pragma once

#include <string>
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

/// Maximization LP/ILP over variables x >= 0.
class LinearProgram {
 public:
  /// Adds a variable (default objective coefficient 0); returns its id.
  VarId add_variable(std::string name, bool integral = true);

  void set_objective(VarId v, double coefficient);

  /// Replaces the whole objective vector (size must match variable count).
  void set_objective_vector(std::vector<double> objective);

  void add_constraint(LinearConstraint c);

  std::size_t variable_count() const { return names_.size(); }
  std::size_t constraint_count() const { return constraints_.size(); }
  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }
  const std::vector<double>& objective() const { return objective_; }
  const std::string& variable_name(VarId v) const { return names_[size_t(v)]; }
  bool is_integral(VarId v) const { return integral_[size_t(v)] != 0; }

 private:
  std::vector<std::string> names_;
  std::vector<double> objective_;
  std::vector<std::uint8_t> integral_;
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
