#include "core/multi_query.h"

#include <algorithm>
#include <limits>
#include <set>

#include "core/condition.h"

namespace polydab::core {

Vector MergeMinPrimary(const std::vector<QueryDabs>& assignments,
                       size_t num_items) {
  Vector out(num_items, std::numeric_limits<double>::infinity());
  for (const QueryDabs& a : assignments) {
    for (size_t i = 0; i < a.vars.size(); ++i) {
      const size_t v = static_cast<size_t>(a.vars[i]);
      out[v] = std::min(out[v], a.primary[i]);
    }
  }
  return out;
}

Result<AaoSolution> SolveAao(const std::vector<PolynomialQuery>& queries,
                             const Vector& values, const Vector& rates,
                             const DualDabParams& params,
                             const AaoSolution* warm) {
  if (queries.empty()) {
    return Status::InvalidArgument("AAO needs at least one query");
  }
  if (params.mu <= 0.0) {
    return Status::InvalidArgument("mu must be positive");
  }

  // Union of variables -> shared primary index.
  std::set<VarId> var_set;
  for (const PolynomialQuery& q : queries) {
    if (!q.IsPositiveCoefficient()) {
      return Status::InvalidArgument(
          "AAO handles positive-coefficient queries; reduce general "
          "queries with a heuristic first");
    }
    for (VarId v : q.p.Variables()) var_set.insert(v);
  }
  std::vector<VarId> vars(var_set.begin(), var_set.end());
  if (vars.empty()) {
    return Status::InvalidArgument("queries reference no variables");
  }
  auto shared_index = [&vars](VarId v) {
    return static_cast<int>(
        std::lower_bound(vars.begin(), vars.end(), v) - vars.begin());
  };

  // GP variable layout:
  //   [0, n)                      shared primary DABs b_x
  //   per query q with k_q vars:  k_q secondary DABs c_{q,x}, then R_q
  const int n = static_cast<int>(vars.size());
  int next = n;
  struct QueryBlock {
    int c_base = 0;
    int r_index = 0;
    std::vector<VarId> qvars;
  };
  std::vector<QueryBlock> blocks(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    blocks[qi].qvars = queries[qi].p.Variables();
    blocks[qi].c_base = next;
    next += static_cast<int>(blocks[qi].qvars.size());
    blocks[qi].r_index = next++;
  }

  gp::GpProblem gp_problem;
  gp_problem.num_vars = next;

  // Objective: refresh stream over shared primaries + mu * sum of R_q.
  for (int i = 0; i < n; ++i) {
    AddRateTerm(params.ddm, rates[static_cast<size_t>(vars[static_cast<size_t>(i)])],
                i, &gp_problem.objective);
  }
  for (const QueryBlock& blk : blocks) {
    gp_problem.objective.AddTerm(params.mu, {{blk.r_index, 1.0}});
  }
  // Vanishing cost on every secondary width: linear-only items cancel out
  // of their validity conditions and would otherwise leave the GP
  // unbounded along their c-rays (see dual_dab.cc).
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryBlock& blk = blocks[qi];
    for (size_t i = 0; i < blk.qvars.size(); ++i) {
      gp_problem.objective.AddTerm(
          1e-6 / values[static_cast<size_t>(blk.qvars[i])],
          {{blk.c_base + static_cast<int>(i), 1.0}});
    }
  }

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryBlock& blk = blocks[qi];
    const size_t k = blk.qvars.size();

    // Per-query validity condition. Build it with a local GpVarMap (b at
    // 0..k-1, c at k..2k-1) and remap indices into the joint layout.
    GpVarMap local;
    local.vars = blk.qvars;
    local.has_secondary = true;
    POLYDAB_ASSIGN_OR_RETURN(
        gp::Posynomial local_cond,
        DualDabCondition(queries[qi].p, values, queries[qi].qab, local));
    local_cond.RemapVars([&](int var) {
      return var < static_cast<int>(k)
                 ? shared_index(blk.qvars[static_cast<size_t>(var)])
                 : blk.c_base + (var - static_cast<int>(k));
    });
    gp_problem.constraints.push_back(std::move(local_cond));

    // b_x <= c_{q,x} and rate(lambda_x, c_{q,x}) <= R_q.
    for (size_t i = 0; i < k; ++i) {
      const int b_idx = shared_index(blk.qvars[i]);
      const int c_idx = blk.c_base + static_cast<int>(i);
      gp::Posynomial bc;
      bc.AddTerm(1.0, {{b_idx, 1.0}, {c_idx, -1.0}});
      gp_problem.constraints.push_back(std::move(bc));
      gp::Posynomial rec;
      AddRecomputeBound(params.ddm,
                        rates[static_cast<size_t>(blk.qvars[i])], c_idx,
                        blk.r_index, &rec);
      gp_problem.constraints.push_back(std::move(rec));
    }
  }

  // Rebuild the joint warm-start vector when the previous solution has the
  // same shape (same query set between periodic solves).
  Vector warm_x;
  const Vector* warm_ptr = nullptr;
  if (warm != nullptr && warm->vars == vars &&
      warm->per_query.size() == queries.size()) {
    warm_x.resize(static_cast<size_t>(next));
    bool shape_ok = true;
    for (int i = 0; i < n; ++i) {
      warm_x[static_cast<size_t>(i)] = warm->item_primary[static_cast<size_t>(i)];
    }
    for (size_t qi = 0; qi < queries.size() && shape_ok; ++qi) {
      const QueryBlock& blk = blocks[qi];
      const QueryDabs& prev = warm->per_query[qi];
      if (prev.vars != blk.qvars || prev.recompute_rate <= 0.0) {
        shape_ok = false;
        break;
      }
      for (size_t i = 0; i < blk.qvars.size(); ++i) {
        warm_x[static_cast<size_t>(blk.c_base) + i] = prev.secondary[i];
      }
      warm_x[static_cast<size_t>(blk.r_index)] = prev.recompute_rate;
    }
    if (shape_ok) warm_ptr = &warm_x;
  }

  POLYDAB_ASSIGN_OR_RETURN(gp::GpSolution sol,
                           SolveGp(gp_problem, params.solver, warm_ptr));

  AaoSolution out;
  out.vars = vars;
  out.item_primary.assign(sol.x.begin(), sol.x.begin() + n);
  out.per_query.resize(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryBlock& blk = blocks[qi];
    QueryDabs& qd = out.per_query[qi];
    qd.vars = blk.qvars;
    qd.primary.resize(blk.qvars.size());
    qd.secondary.resize(blk.qvars.size());
    for (size_t i = 0; i < blk.qvars.size(); ++i) {
      qd.primary[i] =
          sol.x[static_cast<size_t>(shared_index(blk.qvars[i]))];
      qd.secondary[i] = sol.x[static_cast<size_t>(blk.c_base) + i];
      if (qd.secondary[i] < qd.primary[i]) qd.secondary[i] = qd.primary[i];
    }
    qd.recompute_rate = sol.x[static_cast<size_t>(blk.r_index)];
  }
  return out;
}

}  // namespace polydab::core
