#include "wcet/ipet.hpp"

#include "support/contracts.hpp"

namespace pwcet {
namespace {

/// The IPET constraint system of `cfg`. Variable e counts CFG edge e (edge
/// ids are dense indices); variable edge_count() is the virtual entry edge.
LinearProgram ipet_constraints(const ControlFlowGraph& cfg) {
  LinearProgram lp;
  for (std::size_t e = 0; e < cfg.edge_count(); ++e) lp.add_variable();
  const VarId virtual_entry = lp.add_variable();

  // Virtual entry executes exactly once.
  {
    LinearConstraint c;
    c.terms = {{virtual_entry, 1.0}};
    c.sense = ConstraintSense::kEq;
    c.rhs = 1.0;
    lp.add_constraint(std::move(c));
  }

  // Flow conservation: in-flow == out-flow for every block; the entry block
  // receives the virtual edge, the exit block emits an implicit edge whose
  // count equals the virtual entry (single run).
  for (const BasicBlock& b : cfg.blocks()) {
    LinearConstraint c;
    for (EdgeId e : b.in_edges) c.terms.push_back({e, 1.0});
    if (b.id == cfg.entry()) c.terms.push_back({virtual_entry, 1.0});
    for (EdgeId e : b.out_edges) c.terms.push_back({e, -1.0});
    if (b.id == cfg.exit()) c.terms.push_back({virtual_entry, -1.0});
    c.sense = ConstraintSense::kEq;
    c.rhs = 0.0;
    lp.add_constraint(std::move(c));
  }

  // Loop bounds: sum(back edges) <= bound * sum(entry edges).
  for (const LoopInfo& loop : cfg.loops()) {
    LinearConstraint c;
    for (EdgeId e : loop.back_edges) c.terms.push_back({e, 1.0});
    for (EdgeId e : loop.entry_edges)
      c.terms.push_back({e, -static_cast<double>(loop.bound)});
    c.sense = ConstraintSense::kLe;
    c.rhs = 0.0;
    lp.add_constraint(std::move(c));
  }
  return lp;
}

}  // namespace

IpetCalculator::IpetCalculator(const Program& program)
    : program_(program), solver_(ipet_constraints(program.cfg())) {
  PWCET_ASSERT(solver_.feasible());
}

std::vector<double> IpetCalculator::objective_vector(
    const CostModel& model) const {
  const ControlFlowGraph& cfg = program_.cfg();
  const std::size_t virtual_entry = cfg.edge_count();
  std::vector<double> obj(virtual_entry + 1, 0.0);

  // Block costs attach to every in-edge of the block (x_b == sum of
  // in-edges, incl. the virtual edge for the entry block).
  for (const BasicBlock& b : cfg.blocks()) {
    const double cost = model.block_cost[size_t(b.id)];
    if (cost == 0.0) continue;
    for (EdgeId e : b.in_edges) obj[size_t(e)] += cost;
    if (b.id == cfg.entry()) obj[virtual_entry] += cost;
  }
  // First-miss entry terms attach to the loop entry edges.
  for (const LoopInfo& loop : cfg.loops()) {
    const double cost = model.loop_entry_cost[size_t(loop.id)];
    if (cost == 0.0) continue;
    for (EdgeId e : loop.entry_edges) obj[size_t(e)] += cost;
  }
  // Whole-program-scope cost rides on the virtual entry (count 1).
  obj[virtual_entry] += model.root_entry_cost;
  return obj;
}

double IpetCalculator::maximize(const CostModel& model) {
  const LpSolution lp_sol = solver_.reoptimize(objective_vector(model));
  PWCET_ASSERT(lp_sol.status == SolveStatus::kOptimal);
  return lp_sol.objective;
}

}  // namespace pwcet
