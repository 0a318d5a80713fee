#ifndef POLYDAB_GP_SOLVER_INTERNAL_H_
#define POLYDAB_GP_SOLVER_INTERNAL_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "gp/gp_solver.h"
#include "gp/posynomial.h"
#include "obs/metrics.h"

/// \file solver_internal.h
/// Shared internals between the barrier solver (gp_solver.cc) and the
/// memoizing solve engine (solve_engine.cc). Everything here is an
/// implementation detail of src/gp: the SoA convexified program, the
/// reusable per-solve workspace, and the unrouted solve entry points the
/// engine calls to guarantee bit-identical results with `SolveGp`.
///
/// The contract that makes the engine's caching and structure sharing
/// admissible (docs/SOLVER.md): `SolveConvexGp` is a deterministic pure
/// function of (program bits, options bits, warm-start bits). Two calls
/// with bitwise-equal inputs produce bitwise-equal outputs, regardless of
/// which Workspace they run in, because every scratch buffer is fully
/// overwritten before use and the arithmetic order is fixed. The
/// evaluations a Newton step reuses from the previous step's accepted
/// line-search trial (Workspace::at_y) were written earlier in the same
/// solve, at the same point, by the same operations.

namespace polydab::gp::internal {

/// One posynomial in log space, laid out structure-of-arrays: term k owns
/// entries [term_off[k], term_off[k+1]) of exp_var / exp_coef, and
/// logc[k] = log(coef[k]). The raw coefficient bits are kept so an
/// incremental refill can skip the std::log for unchanged terms (the
/// common case when a single item escaped and most of the program is
/// untouched).
struct SoaPosy {
  std::vector<double> logc;
  std::vector<double> coef;
  std::vector<int> term_off;  ///< size num_terms()+1
  std::vector<int> exp_var;
  std::vector<double> exp_coef;

  int num_terms() const { return static_cast<int>(logc.size()); }

  /// F(y) = log Σ_k exp(logc_k + a_k·y). Writes the term logs
  /// logc_k + a_k·y to z[0, num_terms()).
  double Value(const Vector& y, double* z) const;
};

/// Convexified GP: minimize F0(y) s.t. Fi(y) <= 0. Vacuous (empty)
/// constraints are dropped at build time.
struct ConvexGp {
  SoaPosy objective;
  std::vector<SoaPosy> constraints;
  int num_vars = 0;
};

/// Every posynomial of a ConvexGp evaluated at one point: the term logs,
/// flat with the objective's first and then each constraint's in order,
/// and the values (f[0] = F0, f[1 + i] = the value of constraint i).
struct ProgramEval {
  Vector z;
  Vector f;
};

/// Reusable scratch for one solve. Buffers are grown on demand and fully
/// overwritten before each use, so reuse across programs (even of
/// different shapes) cannot change any computed bit. Once a workspace has
/// served one solve of a shape, the Newton loops of later solves of that
/// shape make no heap allocation.
struct Workspace {
  ProgramEval at_y;   ///< evaluation at the current iterate
  ProgramEval trial;  ///< evaluation at the line-search trial point
  Vector w;           ///< softmax weights of one posynomial
  Vector g;           ///< gradient of one posynomial
  Vector grad;        ///< Newton gradient
  Vector d;           ///< Newton direction
  Vector d_damped;    ///< damped-stage ridge direction candidate
  Vector y_new;       ///< line-search trial point
  Vector y_try;       ///< phase-I line-search trial point
  Vector y_stage;     ///< stage start point, restored for the damped retry
  Matrix hess;        ///< Newton Hessian
  Matrix hblock;      ///< phase-I per-constraint Hessian block
  Matrix factor;      ///< Cholesky factor of hess (plus any ridge)
};

/// Validation shared by SolveGp and the engine: nonempty objective,
/// positive num_vars, variable indices in range.
Status ValidateGpProblem(const GpProblem& problem);

/// Build the SoA convexified form from a validated problem.
void BuildConvexGp(const GpProblem& problem, ConvexGp* cg);

/// True iff \p problem has exactly the structure of \p cg (same num_vars,
/// term counts, exponent variables and exponent values) so that
/// RefillCoefficients is sufficient to retarget the skeleton.
bool StructureMatches(const ConvexGp& cg, const GpProblem& problem);

/// Overwrite only the coefficient data of \p cg with \p problem's
/// (structures must match). Terms whose coefficient bits are unchanged
/// keep their cached log; returns the number of std::log calls skipped.
int64_t RefillCoefficients(const GpProblem& problem, ConvexGp* cg);

/// Structural hash of a program: num_vars, per-posynomial term counts and
/// exponent (variable, power-bits) pairs — everything except the
/// coefficient values. Programs with equal signatures can share a ConvexGp
/// skeleton via RefillCoefficients (subject to StructureMatches, which
/// guards against hash collisions).
uint64_t ShapeSignature(const GpProblem& problem);

/// Solve the convexified program. Pure function of the argument bits (see
/// file comment); \p ws may be shared across calls. \p problem is the
/// source problem, used only to evaluate the objective at the optimum.
Result<GpSolution> SolveConvexGp(const GpProblem& problem, const ConvexGp& cg,
                                 const SolverOptions& options,
                                 const Vector* warm_start, SolveStats* stats,
                                 Workspace* ws);

/// Validate + build + solve with a local workspace, ignoring
/// `options.engine` and recording nothing: the raw solver the engine and
/// `SolveGp` both bottom out in.
Result<GpSolution> SolveGpUnrouted(const GpProblem& problem,
                                   const SolverOptions& options,
                                   const Vector* warm_start,
                                   SolveStats* stats);

/// Flush one solve's stats to the `gp.solver.*` instruments (everything
/// except the `solve_seconds` timer, which the caller holds so cache hits
/// still measure their true latency). No-op on a null registry.
void RecordSolveInstruments(obs::MetricRegistry* registry,
                            const SolveStats& stats, bool warm_started,
                            bool ok);

}  // namespace polydab::gp::internal

#endif  // POLYDAB_GP_SOLVER_INTERNAL_H_
