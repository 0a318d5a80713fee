#include "core/dual_dab.h"

namespace polydab::core {

Result<QueryDabs> SolveDualDab(const PolynomialQuery& query,
                               const Vector& values, const Vector& rates,
                               const DualDabParams& params,
                               const QueryDabs* warm) {
  if (params.mu <= 0.0) {
    return Status::InvalidArgument("mu must be positive");
  }
  GpVarMap map;
  map.vars = query.p.Variables();
  map.has_secondary = true;
  const size_t k = map.vars.size();
  if (k == 0) {
    return Status::InvalidArgument("query has no variables");
  }
  const int r_index = static_cast<int>(2 * k);  // R after b's and c's

  gp::GpProblem gp_problem;
  gp_problem.num_vars = static_cast<int>(2 * k + 1);
  gp_problem.objective.Reserve(2 * k + 1, 2 * k + 1);
  gp_problem.constraints.reserve(2 * k + 1);

  // Objective: refresh stream + mu * recompute stream.
  for (size_t i = 0; i < k; ++i) {
    AddRateTerm(params.ddm, rates[static_cast<size_t>(map.vars[i])],
                map.BIndex(i), &gp_problem.objective);
  }
  gp_problem.objective.AddTerm(params.mu, {{r_index, 1.0}});
  // Vanishing cost on secondary widths. A data item that only appears
  // linearly cancels out of the validity condition, leaving its c with no
  // upper pressure at all — the GP would be unbounded along that ray.
  // epsilon * c_i / V_i pins such ranges at a finite value and perturbs
  // every other solution by a negligible (1e-6 relative) amount.
  for (size_t i = 0; i < k; ++i) {
    gp_problem.objective.AddTerm(
        1e-6 / values[static_cast<size_t>(map.vars[i])],
        {{map.CIndex(i), 1.0}});
  }

  // Validity condition over the secondary range.
  POLYDAB_ASSIGN_OR_RETURN(
      gp::Posynomial cond,
      DualDabCondition(query.p, values, query.qab, map));
  gp_problem.constraints.push_back(std::move(cond));

  // b_i / c_i <= 1 and rate(lambda_i, c_i) <= R.
  for (size_t i = 0; i < k; ++i) {
    gp::Posynomial bc;
    bc.AddTerm(1.0, {{map.BIndex(i), 1.0}, {map.CIndex(i), -1.0}});
    gp_problem.constraints.push_back(std::move(bc));

    gp::Posynomial rec;
    AddRecomputeBound(params.ddm, rates[static_cast<size_t>(map.vars[i])],
                      map.CIndex(i), r_index, &rec);
    gp_problem.constraints.push_back(std::move(rec));
  }

  // Warm start: the previous (b, c, R) packed in variable order.
  Vector warm_x;
  const bool has_warm = warm != nullptr && warm->vars == map.vars &&
                        warm->recompute_rate > 0.0;
  if (has_warm) {
    warm_x.reserve(2 * k + 1);
    warm_x.insert(warm_x.end(), warm->primary.begin(), warm->primary.end());
    warm_x.insert(warm_x.end(), warm->secondary.begin(),
                  warm->secondary.end());
    warm_x.push_back(warm->recompute_rate);
  }

  POLYDAB_ASSIGN_OR_RETURN(
      gp::GpSolution sol,
      SolveGp(gp_problem, params.solver, has_warm ? &warm_x : nullptr));

  QueryDabs out;
  out.vars = map.vars;
  out.primary.assign(sol.x.begin(), sol.x.begin() + static_cast<long>(k));
  out.secondary.assign(sol.x.begin() + static_cast<long>(k),
                       sol.x.begin() + static_cast<long>(2 * k));
  out.recompute_rate = sol.x[static_cast<size_t>(r_index)];
  // Numerical safety: the GP solves b <= c to tolerance; enforce exactly so
  // downstream validity checks (c >= b) never fail by round-off.
  for (size_t i = 0; i < k; ++i) {
    if (out.secondary[i] < out.primary[i]) {
      out.secondary[i] = out.primary[i];
    }
  }
  return out;
}

}  // namespace polydab::core
