#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/contracts.hpp"

namespace pwcet {
namespace {

constexpr double kPivotEps = 1e-9;
constexpr double kReducedCostEps = 1e-7;
constexpr double kFeasibilityEps = 1e-6;
constexpr std::size_t kHardIterationLimit = 500000;

}  // namespace

SimplexSolver::SimplexSolver(const LinearProgram& lp) {
  structural_vars_ = lp.variable_count();
  rows_ = lp.constraint_count();

  // Count slack/surplus and artificial columns.
  std::size_t slack_count = 0;
  std::size_t artificial_count = 0;
  // Normalize each constraint to rhs >= 0 first, then:
  //   <= : slack, basic
  //   >= : surplus + artificial
  //   =  : artificial
  struct Row {
    std::vector<std::pair<VarId, double>> terms;
    ConstraintSense sense;
    double rhs;
  };
  std::vector<Row> norm;
  norm.reserve(rows_);
  for (const LinearConstraint& c : lp.constraints()) {
    Row r{c.terms, c.sense, c.rhs};
    if (r.rhs < 0.0) {
      r.rhs = -r.rhs;
      for (auto& [var, coef] : r.terms) coef = -coef;
      if (r.sense == ConstraintSense::kLe)
        r.sense = ConstraintSense::kGe;
      else if (r.sense == ConstraintSense::kGe)
        r.sense = ConstraintSense::kLe;
    }
    switch (r.sense) {
      case ConstraintSense::kLe:
        ++slack_count;
        break;
      case ConstraintSense::kGe:
        ++slack_count;
        ++artificial_count;
        break;
      case ConstraintSense::kEq:
        ++artificial_count;
        break;
    }
    norm.push_back(std::move(r));
  }

  total_vars_ = structural_vars_ + slack_count;
  artificial_begin_ = total_vars_;
  total_cols_ = total_vars_ + artificial_count;

  tab_.assign(rows_ * (total_cols_ + 1), 0.0);
  basis_.assign(rows_, -1);

  std::size_t next_slack = structural_vars_;
  std::size_t next_artificial = artificial_begin_;
  for (std::size_t i = 0; i < rows_; ++i) {
    const Row& r = norm[i];
    for (const auto& [var, coef] : r.terms) at(i, size_t(var)) += coef;
    at(i, total_cols_) = r.rhs;
    switch (r.sense) {
      case ConstraintSense::kLe:
        at(i, next_slack) = 1.0;
        basis_[i] = static_cast<std::int32_t>(next_slack);
        ++next_slack;
        break;
      case ConstraintSense::kGe:
        at(i, next_slack) = -1.0;
        ++next_slack;
        at(i, next_artificial) = 1.0;
        basis_[i] = static_cast<std::int32_t>(next_artificial);
        ++next_artificial;
        break;
      case ConstraintSense::kEq:
        at(i, next_artificial) = 1.0;
        basis_[i] = static_cast<std::int32_t>(next_artificial);
        ++next_artificial;
        break;
    }
  }

  // Phase 1: maximize -(sum of artificials).
  std::vector<double> phase1(total_cols_, 0.0);
  for (std::size_t j = artificial_begin_; j < total_cols_; ++j)
    phase1[j] = -1.0;
  rebuild_objective_row(phase1);
  const int status = phase_loop(phase1);
  // Phase 1 is never unbounded (objective <= 0); treat limit as infeasible.
  feasible_ = (status == 0) && (obj_row_[total_cols_] > -kFeasibilityEps);

  if (!feasible_) return;

  // Drive leftover artificial variables out of the basis where possible so
  // phase 2 cannot be corrupted by them.
  for (std::size_t i = 0; i < rows_; ++i) {
    if (static_cast<std::size_t>(basis_[i]) < artificial_begin_) continue;
    // Find any non-artificial column with a non-zero entry to pivot in.
    for (std::size_t j = 0; j < total_vars_; ++j) {
      if (std::abs(at(i, j)) > kPivotEps) {
        pivot(i, j);
        break;
      }
    }
    // If none exists, the row is redundant; the artificial stays basic at
    // value 0 and its column is excluded from phase-2 entering candidates.
  }
}

void SimplexSolver::rebuild_objective_row(
    const std::vector<double>& padded_objective) {
  PWCET_EXPECTS(padded_objective.size() == total_cols_);
  obj_row_.assign(total_cols_ + 1, 0.0);
  for (std::size_t j = 0; j <= total_cols_; ++j) {
    double z = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double cb = padded_objective[size_t(basis_[r])];
      if (cb != 0.0) z += cb * at(r, j);
    }
    obj_row_[j] = z - (j < total_cols_ ? padded_objective[j] : 0.0);
  }
}

bool SimplexSolver::pivot(std::size_t row, std::size_t col) {
  const double p = at(row, col);
  if (std::abs(p) <= kPivotEps) return false;
  const double inv = 1.0 / p;
  for (std::size_t j = 0; j <= total_cols_; ++j) at(row, j) *= inv;
  at(row, col) = 1.0;  // kill residual rounding
  for (std::size_t r = 0; r < rows_; ++r) {
    if (r == row) continue;
    const double factor = at(r, col);
    if (factor == 0.0) continue;
    for (std::size_t j = 0; j <= total_cols_; ++j)
      at(r, j) -= factor * at(row, j);
    at(r, col) = 0.0;
  }
  const double ofactor = obj_row_[col];
  if (ofactor != 0.0) {
    for (std::size_t j = 0; j <= total_cols_; ++j)
      obj_row_[j] -= ofactor * at(row, j);
    obj_row_[col] = 0.0;
  }
  basis_[row] = static_cast<std::int32_t>(col);
  return true;
}

// Returns 0 = optimal, 1 = unbounded, 2 = iteration limit.
int SimplexSolver::phase_loop(const std::vector<double>& padded_objective) {
  const std::size_t bland_threshold = 50 * (rows_ + total_cols_ + 1);
  // Artificial columns may only enter during phase 1 (when their objective
  // coefficient is negative); detect that from obj usage instead of a flag:
  // we simply never let artificial columns enter once they'd improve a
  // non-phase-1 objective. The caller guarantees artificials have objective
  // coefficient 0 outside phase 1, in which case their reduced cost can
  // only be >= 0... not guaranteed under degeneracy, so exclude explicitly.
  const bool is_phase1 = [&] {
    for (std::size_t j = artificial_begin_; j < total_cols_; ++j)
      if (padded_objective[j] != 0.0) return true;
    return false;
  }();
  const std::size_t enter_limit = is_phase1 ? total_cols_ : total_vars_;

  for (std::size_t iter = 0; iter < kHardIterationLimit; ++iter) {
    const bool bland = iter >= bland_threshold;
    // Entering column: most negative reduced cost (Dantzig) or first
    // negative (Bland).
    std::size_t enter = total_cols_;
    double best = -kReducedCostEps;
    for (std::size_t j = 0; j < enter_limit; ++j) {
      if (obj_row_[j] < best) {
        best = obj_row_[j];
        enter = j;
        if (bland) break;
      }
    }
    if (enter == total_cols_) return 0;  // optimal

    // Ratio test.
    std::size_t leave = rows_;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < rows_; ++r) {
      const double a = at(r, enter);
      if (a <= kPivotEps) continue;
      const double ratio = at(r, total_cols_) / a;
      if (ratio < best_ratio - kPivotEps ||
          (bland && std::abs(ratio - best_ratio) <= kPivotEps &&
           leave != rows_ && basis_[r] < basis_[leave])) {
        best_ratio = ratio;
        leave = r;
      }
    }
    if (leave == rows_) return 1;  // unbounded
    pivot(leave, enter);
  }
  return 2;
}

LpSolution SimplexSolver::extract(const std::vector<double>& objective) const {
  LpSolution sol;
  sol.status = SolveStatus::kOptimal;
  sol.values.assign(structural_vars_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto b = static_cast<std::size_t>(basis_[r]);
    if (b < structural_vars_) sol.values[b] = at(r, total_cols_);
  }
  // Recompute the objective from the original coefficients (no tableau
  // accumulation drift).
  sol.objective = 0.0;
  for (std::size_t j = 0; j < structural_vars_; ++j)
    sol.objective += objective[j] * sol.values[j];
  return sol;
}

LpSolution SimplexSolver::reoptimize(const std::vector<double>& objective) {
  PWCET_EXPECTS(objective.size() == structural_vars_);
  LpSolution sol;  // kInfeasible
  if (!feasible_) return sol;
  std::vector<double> padded(total_cols_, 0.0);
  std::copy(objective.begin(), objective.end(), padded.begin());
  rebuild_objective_row(padded);
  const int status = phase_loop(padded);
  if (status == 0) return extract(objective);
  sol.status =
      status == 1 ? SolveStatus::kUnbounded : SolveStatus::kIterationLimit;
  return sol;
}

}  // namespace pwcet
