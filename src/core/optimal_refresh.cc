#include "core/optimal_refresh.h"

namespace polydab::core {

Result<QueryDabs> SolveOptimalRefresh(const PolynomialQuery& query,
                                      const Vector& values,
                                      const Vector& rates,
                                      DataDynamicsModel ddm,
                                      const gp::SolverOptions& options,
                                      const QueryDabs* warm) {
  GpVarMap map;
  map.vars = query.p.Variables();
  map.has_secondary = false;
  const size_t k = map.vars.size();
  if (k == 0) {
    return Status::InvalidArgument("query has no variables");
  }

  gp::GpProblem gp_problem;
  gp_problem.num_vars = static_cast<int>(k);
  gp_problem.objective.Reserve(k, k);
  for (size_t i = 0; i < k; ++i) {
    AddRateTerm(ddm, rates[static_cast<size_t>(map.vars[i])],
                map.BIndex(i), &gp_problem.objective);
  }
  POLYDAB_ASSIGN_OR_RETURN(
      gp::Posynomial cond,
      SingleDabCondition(query.p, values, query.qab, map));
  gp_problem.constraints.push_back(std::move(cond));

  const bool has_warm = warm != nullptr && warm->vars == map.vars;
  POLYDAB_ASSIGN_OR_RETURN(
      gp::GpSolution sol,
      SolveGp(gp_problem, options, has_warm ? &warm->primary : nullptr));

  QueryDabs out;
  out.vars = map.vars;
  out.primary = sol.x;
  out.secondary = sol.x;  // mirrors primary; see single_dab below
  out.single_dab = true;
  // Every refresh triggers a recomputation, so the modeled recompute rate
  // is the total refresh rate.
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    total += MessageRate(ddm, rates[static_cast<size_t>(map.vars[i])],
                         sol.x[i]);
  }
  out.recompute_rate = total;
  return out;
}

}  // namespace polydab::core
