#include "gp/gp_solver.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "gp/solve_engine.h"
#include "gp/solver_internal.h"

namespace polydab::gp {

namespace internal {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Largest allowed Newton step, per coordinate, in log space (= a factor of
/// e^5 ≈ 148 on the underlying positive variable). Near-singular Newton
/// systems (e.g. a phase-I subproblem that is flat along a diagonal
/// direction when every constraint term has the same total degree) can
/// otherwise produce astronomically long steps that strand the iterate.
constexpr double kMaxStepInf = 5.0;

/// A warm point must clear every constraint by at least this much (in log
/// space) to be trusted. Exactly-on-boundary and epsilon-inside points are
/// "strictly feasible" to the raw probe, but the barrier Hessian carries a
/// 1/Fi² factor that overflows there and the first centering stage
/// diverges or dies in the Cholesky factorization; such points go through
/// phase I instead, which pushes them a genuine margin inside.
constexpr double kWarmFeasMargin = 1e-12;

double InfNorm(const Vector& d) {
  double mx = 0.0;
  for (double di : d) mx = std::max(mx, std::fabs(di));
  return mx;
}

/// Scale \p d so its infinity norm is at most kMaxStepInf. Returns the
/// scaling factor applied (1.0 when no clamping was needed).
double ClampStep(Vector* d) {
  const double mx = InfNorm(*d);
  if (mx <= kMaxStepInf) return 1.0;
  const double scale = kMaxStepInf / mx;
  for (double& di : *d) di *= scale;
  return scale;
}

void BuildSoa(const Posynomial& p, SoaPosy* sp) {
  sp->logc.clear();
  sp->coef.clear();
  sp->term_off.clear();
  sp->exp_var.clear();
  sp->exp_coef.clear();
  sp->term_off.push_back(0);
  for (const GpTerm& t : p.terms()) {
    sp->coef.push_back(t.coef);
    sp->logc.push_back(std::log(t.coef));
    for (const auto& [var, exp] : t.exponents) {
      sp->exp_var.push_back(var);
      sp->exp_coef.push_back(exp);
    }
    sp->term_off.push_back(static_cast<int>(sp->exp_var.size()));
  }
}

/// Size ws->at_y and ws->trial for \p cg. Contents are left unspecified.
void SizeEvals(const ConvexGp& cg, Workspace* ws) {
  size_t terms = static_cast<size_t>(cg.objective.num_terms());
  for (const SoaPosy& c : cg.constraints) {
    terms += static_cast<size_t>(c.num_terms());
  }
  for (ProgramEval* ev : {&ws->at_y, &ws->trial}) {
    ev->z.resize(terms);
    ev->f.resize(cg.constraints.size() + 1);
  }
}

/// Evaluate every posynomial of \p cg at \p y into \p ev, and the barrier
/// value phi(y) = t*F0(y) - Σ log(-Fi(y)) into \p phi. Stops at the first
/// constraint with Fi(y) >= 0 and returns false with *phi = +inf; on true
/// all of \p ev holds the evaluation at \p y.
bool EvaluateBarrier(const ConvexGp& cg, const Vector& y, double t,
                     ProgramEval* ev, double* phi) {
  double* z = ev->z.data();
  ev->f[0] = cg.objective.Value(y, z);
  z += cg.objective.num_terms();
  double value = t * ev->f[0];
  for (size_t i = 0; i < cg.constraints.size(); ++i) {
    const SoaPosy& c = cg.constraints[i];
    const double fi = c.Value(y, z);
    z += c.num_terms();
    ev->f[i + 1] = fi;
    if (fi >= 0.0) {
      *phi = kInf;
      return false;
    }
    value -= std::log(-fi);
  }
  *phi = value;
  return true;
}

/// Softmax weights w_k = exp(z_k - f) and gradient g = Σ_k w_k a_k of one
/// log-posynomial from its term logs \p z and value \p f at a point (as
/// SoaPosy::Value leaves them). Overwrites ws->w and ws->g (size n).
void SoftmaxGradient(const SoaPosy& p, const double* z, double f, size_t n,
                     Workspace* ws) {
  const int nt = p.num_terms();
  ws->g.assign(n, 0.0);
  ws->w.resize(static_cast<size_t>(nt));
  for (int k = 0; k < nt; ++k) {
    const double wk = std::exp(z[k] - f);
    ws->w[static_cast<size_t>(k)] = wk;
    for (int idx = p.term_off[static_cast<size_t>(k)];
         idx < p.term_off[static_cast<size_t>(k) + 1]; ++idx) {
      ws->g[static_cast<size_t>(p.exp_var[static_cast<size_t>(idx)])] +=
          wk * p.exp_coef[static_cast<size_t>(idx)];
    }
  }
}

/// grad += w_grad * g; a zero weight adds nothing, not even signed zeros.
void AddGradient(double w_grad, const Vector& g, Vector* grad) {
  if (w_grad == 0.0) return;
  for (size_t j = 0; j < g.size(); ++j) (*grad)[j] += w_grad * g[j];
}

/// hess += w_hess * (Σ w_k a_k a_kᵀ − g gᵀ) + w_outer * g gᵀ from the
/// weights and gradient SoftmaxGradient left in \p ws, on the lower
/// triangle and diagonal only: SolveCholesky reads nothing else
/// (common/matrix.h). \p hess is n x n and every exponent variable of
/// \p p is below n (ValidateGpProblem).
void AddHessian(const SoaPosy& p, double w_hess, double w_outer,
                const Workspace& ws, Matrix* hess) {
  const size_t n = ws.g.size();
  double* h = hess->data();
  // Σ w_k a_k a_kᵀ piece (sparse outer products per term).
  if (w_hess != 0.0) {
    for (int k = 0; k < p.num_terms(); ++k) {
      const double wk = ws.w[static_cast<size_t>(k)] * w_hess;
      const int lo = p.term_off[static_cast<size_t>(k)];
      const int hi = p.term_off[static_cast<size_t>(k) + 1];
      for (int ii = lo; ii < hi; ++ii) {
        const int vi = p.exp_var[static_cast<size_t>(ii)];
        double* row = h + static_cast<size_t>(vi) * n;
        const double ei = p.exp_coef[static_cast<size_t>(ii)];
        for (int jj = lo; jj < hi; ++jj) {
          const int vj = p.exp_var[static_cast<size_t>(jj)];
          if (vj > vi) continue;
          row[vj] += wk * ei * p.exp_coef[static_cast<size_t>(jj)];
        }
      }
    }
  }
  // (w_outer - w_hess) * g gᵀ piece (dense but only over support).
  const double wo = w_outer - w_hess;
  if (wo != 0.0) {
    for (size_t i = 0; i < n; ++i) {
      if (ws.g[i] == 0.0) continue;
      double* row = h + i * n;
      for (size_t j = 0; j <= i; ++j) {
        if (ws.g[j] == 0.0) continue;
        row[j] += wo * ws.g[i] * ws.g[j];
      }
    }
  }
}

/// Damped-Newton minimization of the barrier objective at fixed t.
/// Returns the number of Newton iterations, or an error.
///
/// In `damped` mode — the second attempt at a stage the plain method
/// could not finish — a step that would need the hard infinity-norm clamp
/// is instead recomputed with a growing Tikhonov ridge until it fits the
/// trust region on its own. The raw clamp rescales the Newton direction
/// of a near-singular system, which preserves its (useless) direction and
/// lets the iterate oscillate across the flat valley, burning the whole
/// `max_newton_per_stage` budget; the ridge bends the direction toward
/// steepest descent, which converges. Damping is never applied on the
/// first attempt so well-conditioned programs keep bit-identical iterates.
Result<int> CenterStep(const ConvexGp& cg, double t, const SolverOptions& opt,
                       Vector* y, SolveStats* stats, Workspace* ws,
                       bool damped) {
  const size_t n = y->size();
  // `iter` counts completed Newton steps (returned to the caller and fed
  // to telemetry); `counted` is what the stage budget is charged for. A
  // clamped step is trust-region *travel*, not Newton refinement — its
  // length is fixed by kMaxStepInf, so a distant optimum would otherwise
  // eat the whole `max_newton_per_stage` budget in transit and fail
  // programs the method handles fine. Travel is budget-free; the hard cap
  // bounds the pathological (oscillating near-singular) case, which the
  // damped retry then rescues.
  int iter = 0;
  int counted = 0;
  const int hard_cap = 10 * opt.max_newton_per_stage;
  // True when ws->at_y and phi0 already hold the evaluation at *y: the
  // accepted line-search trial's, computed at the same point with the
  // same t.
  bool carried = false;
  double phi0 = 0.0;
  while (counted < opt.max_newton_per_stage && iter < hard_cap) {
    // At most one term-log/LogSumExp pass per posynomial at y; it feeds
    // the gradient, the Hessian and phi(y).
    if (!carried && !EvaluateBarrier(cg, *y, t, &ws->at_y, &phi0)) {
      return Status::Internal("barrier stage entered infeasible point");
    }
    ws->grad.assign(n, 0.0);
    ws->hess.Resize(n, n);
    const ProgramEval& ev = ws->at_y;
    const double* z = ev.z.data();
    SoftmaxGradient(cg.objective, z, ev.f[0], n, ws);
    AddGradient(t, ws->g, &ws->grad);
    AddHessian(cg.objective, t, 0.0, *ws, &ws->hess);
    z += cg.objective.num_terms();
    for (size_t i = 0; i < cg.constraints.size(); ++i) {
      const SoaPosy& c = cg.constraints[i];
      const double fi = ev.f[i + 1];
      const double inv = 1.0 / (-fi);
      // d/dy [-log(-Fi)] = grad Fi / (-Fi);
      // d2    = Hess Fi/(-Fi) + grad grad^T / Fi^2.
      SoftmaxGradient(c, z, fi, n, ws);
      AddGradient(inv, ws->g, &ws->grad);
      AddHessian(c, inv, 1.0 / (fi * fi), *ws, &ws->hess);
      z += c.num_terms();
    }

    POLYDAB_RETURN_NOT_OK(
        SolveCholesky(ws->hess, ws->grad, 0.0, &ws->factor, &ws->d));
    Vector& d = ws->d;
    for (double& di : d) di = -di;

    double lambda2 = -Dot(ws->grad, d);
    // The barrier objective scales with t, and the suboptimality implied by
    // a Newton decrement lambda is ~lambda^2/t, so the stopping threshold
    // must scale with t as well or centering stalls at machine precision.
    if (lambda2 / 2.0 < opt.inner_tol * std::max(1.0, t)) return iter;
    double scale = 1.0;
    if (!damped) {
      scale = ClampStep(&d);
      lambda2 *= scale;
    } else if (InfNorm(d) > kMaxStepInf) {
      double diag_max = 0.0;
      for (size_t i = 0; i < n; ++i) {
        diag_max = std::max(diag_max, ws->hess(i, i));
      }
      double reg = std::max(1e-12, 1e-10 * diag_max);
      bool fits = false;
      for (int attempt = 0; attempt < 40 && !fits; ++attempt) {
        if (SolveCholesky(ws->hess, ws->grad, reg, &ws->factor,
                          &ws->d_damped)
                .ok()) {
          for (double& di : ws->d_damped) di = -di;
          if (InfNorm(ws->d_damped) <= kMaxStepInf) {
            std::swap(d, ws->d_damped);
            fits = true;
          }
        }
        reg *= 10.0;
      }
      if (!fits) {
        scale = ClampStep(&d);
        lambda2 *= scale;
      } else {
        lambda2 = -Dot(ws->grad, d);
        if (lambda2 / 2.0 < opt.inner_tol * std::max(1.0, t)) return iter;
      }
    }

    // Backtracking line search on the true barrier value.
    double alpha = 1.0;
    double phi1 = 0.0;
    ws->y_new.resize(n);
    for (int ls = 0; ls < 60; ++ls) {
      for (size_t j = 0; j < n; ++j) ws->y_new[j] = (*y)[j] + alpha * d[j];
      carried = EvaluateBarrier(cg, ws->y_new, t, &ws->trial, &phi1);
      if (phi1 <= phi0 - 0.25 * alpha * lambda2) break;
      alpha *= 0.5;
      ++stats->line_search_backtracks;
      if (alpha < 1e-14) {
        // No descent possible: already at numerical optimum for this t.
        return iter;
      }
    }
    *y = ws->y_new;
    std::swap(ws->at_y, ws->trial);
    phi0 = phi1;
    ++stats->newton_iterations;
    ++iter;
    if (scale == 1.0) ++counted;  // clamped travel steps are budget-free
  }
  return Status::NotConverged("Newton centering exceeded iteration limit");
}

/// Phase I: find strictly feasible y, minimizing the max constraint value.
/// Works on the augmented variable vector (y, s) with constraints
/// Fi(y) - s <= 0, driving s below zero.
Result<Vector> PhaseOne(const ConvexGp& cg, const SolverOptions& opt,
                        const Vector& y0, SolveStats* stats, Workspace* ws) {
  stats->phase1 = true;
  const size_t n = static_cast<size_t>(cg.num_vars);
  const size_t first_z = static_cast<size_t>(cg.objective.num_terms());
  // The constraint entries of ws->at_y hold every Fi evaluated at y
  // throughout: first here, then from each accepted line-search trial
  // (y moves only to a trial point).
  Vector y = y0;
  double s = 0.0;
  {
    double* z = ws->at_y.z.data() + first_z;
    for (size_t i = 0; i < cg.constraints.size(); ++i) {
      const SoaPosy& c = cg.constraints[i];
      ws->at_y.f[i + 1] = c.Value(y, z);
      z += c.num_terms();
      s = std::max(s, ws->at_y.f[i + 1]);
    }
  }
  if (s < -1e-6) return y;  // already strictly feasible
  s += 1.0;

  double t = 1.0;
  const double m = static_cast<double>(cg.constraints.size());
  for (int outer = 0; outer < opt.max_outer; ++outer) {
    // Damped Newton on  t*s - Σ log(s - Fi(y)).
    for (int iter = 0; iter < opt.max_newton_per_stage; ++iter) {
      ws->grad.assign(n + 1, 0.0);
      ws->hess.Resize(n + 1, n + 1);
      ws->grad[n] = t;
      // The evaluation at y feeds the gradient, the Hessian and the line
      // search's starting value val0.
      double val0 = t * s;
      bool bail = false;
      const double* z = ws->at_y.z.data() + first_z;
      for (size_t ci = 0; ci < cg.constraints.size(); ++ci) {
        const SoaPosy& c = cg.constraints[ci];
        const double fi = ws->at_y.f[ci + 1];
        const double gap = s - fi;
        if (gap <= 0.0) {
          bail = true;
          break;
        }
        val0 -= std::log(gap);
        const double inv = 1.0 / gap;
        SoftmaxGradient(c, z, fi, n, ws);
        z += c.num_terms();
        // Hessian weights for the y-block: H_i/gap + g_i g_iᵀ/gap².
        ws->hblock.Resize(n, n);
        AddHessian(c, inv, inv * inv, *ws, &ws->hblock);
        // Lower triangle only, like AddHessian.
        for (size_t i = 0; i < n; ++i) {
          ws->grad[i] += inv * ws->g[i];
          for (size_t j = 0; j <= i; ++j) {
            ws->hess(i, j) += ws->hblock(i, j);
          }
          ws->hess(n, i) += -inv * inv * ws->g[i];
        }
        ws->grad[n] += -inv;
        ws->hess(n, n) += inv * inv;
      }
      if (bail) break;

      POLYDAB_RETURN_NOT_OK(
          SolveCholesky(ws->hess, ws->grad, 0.0, &ws->factor, &ws->d));
      Vector& d = ws->d;
      for (double& di : d) di = -di;
      double lambda2 = -Dot(ws->grad, d);
      if (lambda2 / 2.0 < opt.inner_tol) break;
      lambda2 *= ClampStep(&d);

      // Line search maintaining s - Fi(y) > 0. Phase I only needs *a*
      // strictly feasible point, so accept any trial that achieves one.
      double alpha = 1.0;
      ws->y_try.resize(n);
      for (int ls = 0; ls < 60; ++ls) {
        for (size_t j = 0; j < n; ++j) ws->y_try[j] = y[j] + alpha * d[j];
        const double s_try = s + alpha * d[n];
        bool feas = true;
        double max_f = -kInf;
        double val = t * s_try;
        double* zt = ws->trial.z.data() + first_z;
        for (size_t i = 0; i < cg.constraints.size(); ++i) {
          const SoaPosy& c = cg.constraints[i];
          const double fi = c.Value(ws->y_try, zt);
          zt += c.num_terms();
          ws->trial.f[i + 1] = fi;
          max_f = std::max(max_f, fi);
          const double gap = s_try - fi;
          if (gap <= 0.0) {
            feas = false;
            break;
          }
          val -= std::log(gap);
        }
        if (feas && max_f < -1e-3) return ws->y_try;  // strictly feasible
        if (feas && val <= val0 - 0.25 * alpha * lambda2) break;
        alpha *= 0.5;
        ++stats->line_search_backtracks;
        if (alpha < 1e-14) break;
      }
      // Past this check the loop broke on an accepted trial: y moves to
      // exactly y_try, whose evaluation becomes the one at y.
      if (alpha < 1e-14) break;
      for (size_t j = 0; j < n; ++j) y[j] += alpha * d[j];
      s += alpha * d[n];
      std::swap(ws->at_y, ws->trial);
      ++stats->newton_iterations;
      if (s < -1e-3) return y;  // strictly feasible, done early
    }
    if (s < -1e-6) return y;
    if (m / t < opt.duality_tol) break;
    t *= opt.barrier_mu;
  }
  if (s < 0.0) return y;
  return Status::Infeasible("phase I ended with max constraint value " +
                            std::to_string(s));
}

/// FNV-1a accumulator over raw 64-bit words.
struct Fnv64 {
  uint64_t h = 1469598103934665603ull;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void MixInt(int v) { Mix(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void MixDouble(double v) { Mix(std::bit_cast<uint64_t>(v)); }
};

void MixStructure(const Posynomial& p, Fnv64* f) {
  f->MixInt(static_cast<int>(p.terms().size()));
  for (const GpTerm& t : p.terms()) {
    f->MixInt(static_cast<int>(t.exponents.size()));
    for (const auto& [var, exp] : t.exponents) {
      f->MixInt(var);
      f->MixDouble(exp);
    }
  }
}

bool SoaStructureMatches(const SoaPosy& sp, const Posynomial& p) {
  if (sp.num_terms() != static_cast<int>(p.terms().size())) return false;
  size_t flat = 0;
  for (size_t k = 0; k < p.terms().size(); ++k) {
    const auto& exps = p.terms()[k].exponents;
    if (sp.term_off[k + 1] - sp.term_off[k] !=
        static_cast<int>(exps.size())) {
      return false;
    }
    for (const auto& [var, exp] : exps) {
      if (sp.exp_var[flat] != var ||
          std::bit_cast<uint64_t>(sp.exp_coef[flat]) !=
              std::bit_cast<uint64_t>(exp)) {
        return false;
      }
      ++flat;
    }
  }
  return true;
}

int64_t RefillSoa(const Posynomial& p, SoaPosy* sp) {
  int64_t skipped = 0;
  for (size_t k = 0; k < p.terms().size(); ++k) {
    const double c = p.terms()[k].coef;
    if (std::bit_cast<uint64_t>(sp->coef[k]) == std::bit_cast<uint64_t>(c)) {
      ++skipped;  // identical bits: the cached log is exact
      continue;
    }
    sp->coef[k] = c;
    sp->logc[k] = std::log(c);
  }
  return skipped;
}

}  // namespace

double SoaPosy::Value(const Vector& y, double* z) const {
  const int nt = num_terms();
  for (int k = 0; k < nt; ++k) {
    double s = logc[static_cast<size_t>(k)];
    for (int idx = term_off[static_cast<size_t>(k)];
         idx < term_off[static_cast<size_t>(k) + 1]; ++idx) {
      s += exp_coef[static_cast<size_t>(idx)] *
           y[static_cast<size_t>(exp_var[static_cast<size_t>(idx)])];
    }
    z[k] = s;
  }
  return LogSumExp(std::span<const double>(z, static_cast<size_t>(nt)));
}

Status ValidateGpProblem(const GpProblem& problem) {
  if (problem.num_vars <= 0) {
    return Status::InvalidArgument("GP has no variables");
  }
  if (problem.objective.empty()) {
    return Status::InvalidArgument("GP has an empty objective");
  }
  int mx = problem.objective.MaxVarIndex();
  for (const Posynomial& c : problem.constraints) {
    mx = std::max(mx, c.MaxVarIndex());
  }
  if (mx >= problem.num_vars) {
    return Status::InvalidArgument(
        "posynomial references variable index beyond num_vars");
  }
  return Status::OK();
}

void BuildConvexGp(const GpProblem& problem, ConvexGp* cg) {
  cg->num_vars = problem.num_vars;
  BuildSoa(problem.objective, &cg->objective);
  cg->constraints.clear();
  cg->constraints.reserve(problem.constraints.size());
  for (const Posynomial& c : problem.constraints) {
    if (c.empty()) continue;  // vacuous "0 <= 1"
    cg->constraints.emplace_back();
    BuildSoa(c, &cg->constraints.back());
  }
}

bool StructureMatches(const ConvexGp& cg, const GpProblem& problem) {
  if (cg.num_vars != problem.num_vars) return false;
  if (!SoaStructureMatches(cg.objective, problem.objective)) return false;
  size_t ci = 0;
  for (const Posynomial& c : problem.constraints) {
    if (c.empty()) continue;
    if (ci >= cg.constraints.size() ||
        !SoaStructureMatches(cg.constraints[ci], c)) {
      return false;
    }
    ++ci;
  }
  return ci == cg.constraints.size();
}

int64_t RefillCoefficients(const GpProblem& problem, ConvexGp* cg) {
  int64_t skipped = RefillSoa(problem.objective, &cg->objective);
  size_t ci = 0;
  for (const Posynomial& c : problem.constraints) {
    if (c.empty()) continue;
    skipped += RefillSoa(c, &cg->constraints[ci]);
    ++ci;
  }
  return skipped;
}

uint64_t ShapeSignature(const GpProblem& problem) {
  Fnv64 f;
  f.MixInt(problem.num_vars);
  MixStructure(problem.objective, &f);
  for (const Posynomial& c : problem.constraints) {
    if (c.empty()) continue;
    f.Mix(0x5eed5eed5eed5eedull);  // posynomial separator
    MixStructure(c, &f);
  }
  return f.h;
}

Result<GpSolution> SolveConvexGp(const GpProblem& problem, const ConvexGp& cg,
                                 const SolverOptions& options,
                                 const Vector* warm_start, SolveStats* stats,
                                 Workspace* ws) {
  const size_t n = static_cast<size_t>(cg.num_vars);
  Vector y(n, 0.0);
  if (warm_start != nullptr) {
    POLYDAB_CHECK(warm_start->size() == n);
    for (size_t j = 0; j < n; ++j) {
      POLYDAB_CHECK((*warm_start)[j] > 0.0);
      y[j] = std::log((*warm_start)[j]);
    }
  }

  SizeEvals(cg, ws);  // PhaseOne and CenterStep evaluate into these
  const double m = std::max<size_t>(cg.constraints.size(), 1);

  // Full barrier schedule from the given starting weight. Returns the
  // Newton-iteration count of this descent alone (so a cold restart after
  // a failed warm attempt reports only the work of the solve that
  // actually produced the answer). A stage that exhausts its Newton
  // budget is retried once with Levenberg damping (see CenterStep) before
  // the whole solve is declared failed.
  auto run_barrier = [&](Vector* yy, double t) -> Result<int> {
    int newton_total = 0;
    for (int outer = 0; outer < options.max_outer; ++outer) {
      ws->y_stage = *yy;
      Result<int> iters = CenterStep(cg, t, options, yy, stats, ws, false);
      if (!iters.ok() &&
          iters.status().code() == StatusCode::kNotConverged) {
        *yy = ws->y_stage;
        ++stats->damped_stages;
        iters = CenterStep(cg, t, options, yy, stats, ws, true);
      }
      if (!iters.ok()) return iters.status();
      newton_total += *iters;
      if (m / t < options.duality_tol) break;
      t *= options.barrier_mu;
    }
    return newton_total;
  };

  auto finish = [&](const Vector& yy, int newton_total) {
    GpSolution sol;
    sol.x.resize(n);
    for (size_t j = 0; j < n; ++j) sol.x[j] = std::exp(yy[j]);
    sol.objective = problem.objective.Evaluate(sol.x);
    sol.newton_iterations = newton_total;
    return sol;
  };

  if (!cg.constraints.empty()) {
    // Any comfortably interior point works for the barrier; a previous
    // solve's optimum for slightly moved data usually is one.
    bool warm_feasible = warm_start != nullptr;
    if (warm_feasible) {
      // ws->trial.z has room for any one posynomial's term logs.
      for (const SoaPosy& c : cg.constraints) {
        if (c.Value(y, ws->trial.z.data()) >= -kWarmFeasMargin) {
          warm_feasible = false;
          break;
        }
      }
    }
    if (warm_feasible) {
      // A strictly feasible warm start (typically last solve's optimum for
      // slightly moved data) is near the end of the central path already;
      // start the barrier schedule much closer to its final value.
      stats->warm_feasible = true;
      const double t_warm =
          std::max(options.t0, m / options.duality_tol * 1e-4);
      Result<int> nt = run_barrier(&y, t_warm);
      if (nt.ok()) return finish(y, *nt);
      // The warm-started descent failed. Retry the whole solve cold — from
      // the origin through phase I, exactly as if no warm start had been
      // given — and reset the per-attempt stats so the telemetry reports
      // this as the phase-I solve it actually was, not a warm one.
      stats->warm_feasible = false;
      stats->cold_restart = true;
      std::fill(y.begin(), y.end(), 0.0);
      POLYDAB_ASSIGN_OR_RETURN(y, PhaseOne(cg, options, y, stats, ws));
      POLYDAB_ASSIGN_OR_RETURN(int nt2, run_barrier(&y, options.t0));
      return finish(y, nt2);
    }
    POLYDAB_ASSIGN_OR_RETURN(y, PhaseOne(cg, options, y, stats, ws));
  }

  POLYDAB_ASSIGN_OR_RETURN(int nt, run_barrier(&y, options.t0));
  return finish(y, nt);
}

Result<GpSolution> SolveGpUnrouted(const GpProblem& problem,
                                   const SolverOptions& options,
                                   const Vector* warm_start,
                                   SolveStats* stats) {
  Status st = ValidateGpProblem(problem);
  if (!st.ok()) return st;
  ConvexGp cg;
  BuildConvexGp(problem, &cg);
  Workspace ws;
  return SolveConvexGp(problem, cg, options, warm_start, stats, &ws);
}

void RecordSolveInstruments(obs::MetricRegistry* registry,
                            const SolveStats& stats, bool warm_started,
                            bool ok) {
  if (registry == nullptr) return;
  obs::MetricRegistry& reg = *registry;
  reg.GetCounter("gp.solver.solves")->Inc();
  reg.GetHistogram("gp.solver.newton_iterations")
      ->Record(static_cast<double>(stats.newton_iterations));
  reg.GetCounter("gp.solver.line_search_backtracks")
      ->Add(stats.line_search_backtracks);
  if (stats.phase1) reg.GetCounter("gp.solver.phase1_solves")->Inc();
  if (warm_started) {
    reg.GetCounter("gp.solver.warm_started_solves")->Inc();
    if (stats.warm_feasible) {
      reg.GetCounter("gp.solver.warm_start_feasible")->Inc();
    }
  }
  // Pathological-path counters: materialized only when the path was
  // taken, so well-behaved runs publish exactly the historical name set.
  if (stats.cold_restart) reg.GetCounter("gp.solver.cold_restarts")->Inc();
  if (stats.damped_stages > 0) {
    reg.GetCounter("gp.solver.damped_stages")->Add(stats.damped_stages);
  }
  reg.GetCounter(ok ? "gp.solver.converged" : "gp.solver.failures")->Inc();
}

}  // namespace internal

Result<GpSolution> SolveGp(const GpProblem& problem,
                           const SolverOptions& options,
                           const Vector* warm_start) {
  if (options.engine != nullptr) {
    return options.engine->Solve(problem, options, warm_start);
  }
  SolveStats stats;
  obs::MetricRegistry* reg = options.registry;
  obs::ScopedTimer timer(
      reg == nullptr ? nullptr : reg->GetHistogram("gp.solver.solve_seconds"));
  Result<GpSolution> result =
      internal::SolveGpUnrouted(problem, options, warm_start, &stats);
  timer.Stop();
  internal::RecordSolveInstruments(reg, stats, warm_start != nullptr,
                                   result.ok());
  if (options.record != nullptr) {
    *options.record = {true, warm_start != nullptr, result.ok(), stats};
  }
  return result;
}

void ReplaySolveInstruments(obs::MetricRegistry* registry,
                            const SolveRecord& record) {
  if (registry == nullptr || !record.solved) return;
  registry->GetHistogram("gp.solver.solve_seconds")->Record(0.0);
  internal::RecordSolveInstruments(registry, record.stats,
                                   record.warm_started, record.ok);
}

}  // namespace polydab::gp
