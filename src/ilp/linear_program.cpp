#include "ilp/linear_program.hpp"

#include "support/contracts.hpp"

namespace pwcet {

void LinearProgram::add_constraint(LinearConstraint c) {
  for (const auto& [var, coef] : c.terms) {
    PWCET_EXPECTS(var >= 0 && static_cast<size_t>(var) < variable_count_);
    (void)coef;
  }
  constraints_.push_back(std::move(c));
}

}  // namespace pwcet
