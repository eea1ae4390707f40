// Dense two-phase primal simplex.
//
// Design notes:
//  * The IPET/FMM pipeline solves many LPs that share one constraint system
//    and differ only in the objective (one delta objective per
//    (set, fault-count) pair). The solver therefore keeps its tableau after
//    phase 1/2 and supports `reoptimize(new_objective)`, which rebuilds the
//    reduced-cost row from the current feasible basis and re-runs phase 2 —
//    no phase 1 per objective.
//  * Pivoting: Dantzig rule with a Bland's-rule fallback after an iteration
//    threshold, which guarantees termination under degeneracy.
#pragma once

#include <vector>

#include "ilp/linear_program.hpp"

namespace pwcet {

class SimplexSolver {
 public:
  /// Builds the standard-form tableau and runs phase 1 (feasibility).
  explicit SimplexSolver(const LinearProgram& lp);

  /// True if the constraint system has any feasible point.
  bool feasible() const { return feasible_; }

  /// Maximizes `objective` (one coefficient per variable) over the
  /// constraint system, starting from the current feasible basis (phase 2
  /// only). May be called many times with different objectives.
  LpSolution reoptimize(const std::vector<double>& objective);

 private:
  void rebuild_objective_row(const std::vector<double>& padded_objective);
  bool pivot(std::size_t row, std::size_t col);
  int phase_loop(const std::vector<double>& padded_objective);
  LpSolution extract(const std::vector<double>& objective) const;

  std::size_t structural_vars_ = 0;  // variables of the original program
  std::size_t total_vars_ = 0;       // + slacks/surplus (artificials extra)
  std::size_t rows_ = 0;
  // Tableau: rows_ x (total_cols_ + 1); last column is the RHS.
  std::size_t total_cols_ = 0;  // includes artificial columns
  std::vector<double> tab_;
  std::vector<double> obj_row_;  // reduced costs, size total_cols_ + 1
  std::vector<std::int32_t> basis_;  // basic column per row
  std::size_t artificial_begin_ = 0;
  bool feasible_ = false;

  double& at(std::size_t r, std::size_t c) {
    return tab_[r * (total_cols_ + 1) + c];
  }
  double at(std::size_t r, std::size_t c) const {
    return tab_[r * (total_cols_ + 1) + c];
  }
};

}  // namespace pwcet
