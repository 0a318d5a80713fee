#ifndef POLYDAB_CORE_DUAL_DAB_H_
#define POLYDAB_CORE_DUAL_DAB_H_

#include "common/status.h"
#include "core/condition.h"
#include "core/ddm.h"
#include "core/query.h"
#include "gp/gp_solver.h"

/// \file dual_dab.h
/// §III-A.2–A.5: the paper's central contribution. Each item gets a tight
/// primary DAB b (shipped to the source) and a wider secondary DAB c ≥ b
/// (kept at the coordinator). The primary bounds stay valid while every
/// item remains inside V ± c, so recomputations happen only on secondary
/// violations. One geometric program trades the two message streams:
///
///   minimize   Σ rate(λ_i, b_i) + μ·R
///   subject to P(V+c+b) − P(V+c) ≤ B          (validity over the range)
///              b_i ≤ c_i                       (range contains the filter)
///              rate(λ_i, c_i) ≤ R              (R = recompute rate)
///
/// μ is the modeled cost of one recomputation in messages (§III-A.3):
/// larger μ buys wider secondary ranges (fewer recomputations) with
/// slightly tighter primaries (more refreshes).

namespace polydab::core {

/// Parameters of the Dual-DAB optimization.
struct DualDabParams {
  double mu = kDefaultMu;  ///< recomputation cost in messages (μ > 0)
  DataDynamicsModel ddm = DataDynamicsModel::kMonotonic;
  gp::SolverOptions solver;
};

/// \brief Compute the Dual-DAB assignment for PPQ \p query at the current
/// \p values with per-item rate estimates \p rates (dense, by VarId).
///
/// Warm-starting with the previous assignment of the same query (from
/// before the secondary violation) typically cuts solver work severalfold.
Result<QueryDabs> SolveDualDab(const PolynomialQuery& query,
                               const Vector& values, const Vector& rates,
                               const DualDabParams& params = DualDabParams(),
                               const QueryDabs* warm = nullptr);

}  // namespace polydab::core

#endif  // POLYDAB_CORE_DUAL_DAB_H_
