#ifndef POLYDAB_CORE_OPTIMAL_REFRESH_H_
#define POLYDAB_CORE_OPTIMAL_REFRESH_H_

#include "common/status.h"
#include "core/condition.h"
#include "core/ddm.h"
#include "core/query.h"
#include "gp/gp_solver.h"

/// \file optimal_refresh.h
/// §III-A.1: the single-DAB assignment that is optimal in the number of
/// refreshes for a positive-coefficient polynomial query —
///   minimize   Σ rate(λ_i, b_i)
///   subject to P(V+b) − P(V) ≤ B.
/// Because the condition depends on current values, this assignment must be
/// recomputed on every refresh (the motivation for the Dual-DAB approach).

namespace polydab::core {

/// \brief Compute the refresh-optimal single-DAB assignment for PPQ
/// \p query at the current \p values.
///
/// \param values dense per-item values, indexed by VarId.
/// \param rates  dense per-item estimated rates of change λ.
/// \param warm   optional previous assignment for the same query, used to
///               warm-start the GP solver.
///
/// The returned QueryDabs has secondary == primary (single-DAB semantics)
/// and recompute_rate equal to the modeled refresh arrival rate, since each
/// refresh invalidates the assignment.
Result<QueryDabs> SolveOptimalRefresh(
    const PolynomialQuery& query, const Vector& values, const Vector& rates,
    DataDynamicsModel ddm = DataDynamicsModel::kMonotonic,
    const gp::SolverOptions& options = gp::SolverOptions(),
    const QueryDabs* warm = nullptr);

}  // namespace polydab::core

#endif  // POLYDAB_CORE_OPTIMAL_REFRESH_H_
