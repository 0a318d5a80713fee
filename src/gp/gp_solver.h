#ifndef POLYDAB_GP_GP_SOLVER_H_
#define POLYDAB_GP_GP_SOLVER_H_

#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "gp/posynomial.h"
#include "obs/metrics.h"

/// \file gp_solver.h
/// A from-scratch geometric-program solver (the paper used CVXOPT; see
/// DESIGN.md §2). The GP is convexified by the standard log transform
/// y = log v, turning every posynomial f into the convex log-sum-exp
/// function F(y) = log f(e^y). The convex program
///     minimize F0(y)  subject to  Fi(y) <= 0
/// is then solved with a primal barrier interior-point method (damped
/// Newton inner iterations, geometric barrier schedule), preceded by a
/// phase-I feasibility solve when the starting point violates a constraint.

namespace polydab::gp {

class SolveEngine;

/// Per-solve work counters, always accumulated (trivially cheap ints) and
/// flushed to the telemetry registry only when one is configured.
struct SolveStats {
  int newton_iterations = 0;       ///< all Newton work, incl. failed stages
  int line_search_backtracks = 0;
  int damped_stages = 0;           ///< centering stages rerun with damping
  bool phase1 = false;
  bool warm_feasible = false;      ///< warm start accepted AND solve used it
  bool cold_restart = false;       ///< warm centering failed; retried cold
};

/// Everything one solve fed into the `gp.solver.*` instruments, so a
/// caller that reuses the solve's result can replay them
/// (ReplaySolveInstruments) exactly as a memo hit does.
struct SolveRecord {
  bool solved = false;  ///< a solve ran, or was served from the memo
  bool warm_started = false;
  bool ok = false;
  SolveStats stats;
};

/// Tunables for the barrier method. Defaults solve every program in this
/// codebase to ~1e-7 relative accuracy in well under a millisecond per
/// hundred variables.
struct SolverOptions {
  double duality_tol = 1e-7;   ///< stop when m / t < duality_tol
  double inner_tol = 1e-9;     ///< Newton decrement^2 / 2 threshold
  double t0 = 1.0;             ///< initial barrier weight
  double barrier_mu = 20.0;    ///< barrier growth factor per outer step
  int max_newton_per_stage = 200;
  int max_outer = 60;
  /// Optional telemetry sink (docs/OBSERVABILITY.md). When set, every
  /// solve records the `gp.solver.*` instruments: per-solve latency and
  /// Newton-iteration histograms plus counters for line-search
  /// backtracks, phase-I invocations, warm starts, and convergence
  /// outcome. Null (the default) costs one branch per solve and nothing
  /// else. Not owned; must outlive the solve.
  obs::MetricRegistry* registry = nullptr;
  /// Optional memoizing solve server (gp/solve_engine.h,
  /// docs/SOLVER.md). When set, `SolveGp` routes through it: results are
  /// bit-identical to the direct path by construction (the engine only
  /// returns memoized solutions for bitwise-equal inputs and otherwise
  /// runs this same solver in a pooled workspace), and the engine replays
  /// the `gp.solver.*` instruments on cache hits so telemetry totals
  /// match an engine-less run exactly. Null (the default) costs one
  /// branch per solve. Not owned; must outlive the solve.
  SolveEngine* engine = nullptr;
  /// Optional out-parameter: every solve made with these options
  /// overwrites it with its SolveRecord. Not configuration — the memo key
  /// ignores it. Null (the default) costs one branch per solve. Not owned.
  SolveRecord* record = nullptr;
};

/// Result of a successful solve.
struct GpSolution {
  Vector x;                ///< optimal variable values (positive)
  double objective = 0.0;  ///< f0(x) at the returned point
  int newton_iterations = 0;
};

/// \brief Solve \p problem to optimality.
///
/// \param problem   GP in standard form; every constraint is fi(v) <= 1.
/// \param options   barrier tunables.
/// \param warm_start optional strictly positive starting point (need not be
///        feasible; phase I will repair it). Passing the previous solution
///        of a slightly perturbed program typically saves most of the work,
///        which is how the coordinator amortizes DAB recomputations.
Result<GpSolution> SolveGp(const GpProblem& problem,
                           const SolverOptions& options = SolverOptions(),
                           const Vector* warm_start = nullptr);

/// \brief Count one more solve described by \p record into \p registry's
/// `gp.solver.*` instruments: the counters and histograms the recorded
/// solve itself fed, plus a zero `solve_seconds` sample because no solve
/// runs. For callers that install one solve's result for several
/// bitwise-equal programs (docs/CONCURRENCY.md). No-op on a null
/// registry or an unsolved record.
void ReplaySolveInstruments(obs::MetricRegistry* registry,
                            const SolveRecord& record);

}  // namespace polydab::gp

#endif  // POLYDAB_GP_GP_SOLVER_H_
