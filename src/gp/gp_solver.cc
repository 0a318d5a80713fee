#include "gp/gp_solver.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

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

/// Value, gradient, and (optionally) Hessian of one log-posynomial,
/// accumulated into the given outputs with weight `w_grad` for the
/// gradient and `w_hess`, `w_outer` for the two Hessian pieces:
///   grad += w_grad * g
///   hess += w_hess * (Σ w_k a_k a_kᵀ − g gᵀ) + w_outer * g gᵀ
/// where g = Σ w_k a_k and w_k are the softmax weights. Scratch lives in
/// \p ws (z, w, g), all fully overwritten.
double Accumulate(const SoaPosy& p, const Vector& y, double w_grad,
                  double w_hess, double w_outer, Vector* grad, Matrix* hess,
                  Vector* g_out, Workspace* ws) {
  const size_t n = y.size();
  const int nt = p.num_terms();
  ws->z.resize(static_cast<size_t>(nt));
  for (int k = 0; k < nt; ++k) {
    double s = p.logc[static_cast<size_t>(k)];
    for (int idx = p.term_off[static_cast<size_t>(k)];
         idx < p.term_off[static_cast<size_t>(k) + 1]; ++idx) {
      s += p.exp_coef[static_cast<size_t>(idx)] *
           y[static_cast<size_t>(p.exp_var[static_cast<size_t>(idx)])];
    }
    ws->z[static_cast<size_t>(k)] = s;
  }
  const double f = LogSumExp(ws->z);
  ws->g.assign(n, 0.0);
  ws->w.resize(static_cast<size_t>(nt));
  for (int k = 0; k < nt; ++k) {
    const double wk = std::exp(ws->z[static_cast<size_t>(k)] - f);
    ws->w[static_cast<size_t>(k)] = wk;
    for (int idx = p.term_off[static_cast<size_t>(k)];
         idx < p.term_off[static_cast<size_t>(k) + 1]; ++idx) {
      ws->g[static_cast<size_t>(p.exp_var[static_cast<size_t>(idx)])] +=
          wk * p.exp_coef[static_cast<size_t>(idx)];
    }
  }
  if (grad != nullptr && w_grad != 0.0) {
    for (size_t j = 0; j < n; ++j) (*grad)[j] += w_grad * ws->g[j];
  }
  if (hess != nullptr) {
    // Σ w_k a_k a_kᵀ piece (sparse outer products per term).
    if (w_hess != 0.0) {
      for (int k = 0; k < nt; ++k) {
        const double wk = ws->w[static_cast<size_t>(k)] * w_hess;
        const int lo = p.term_off[static_cast<size_t>(k)];
        const int hi = p.term_off[static_cast<size_t>(k) + 1];
        for (int ii = lo; ii < hi; ++ii) {
          const size_t vi = static_cast<size_t>(p.exp_var[static_cast<size_t>(ii)]);
          const double ei = p.exp_coef[static_cast<size_t>(ii)];
          for (int jj = lo; jj < hi; ++jj) {
            (*hess)(vi, static_cast<size_t>(p.exp_var[static_cast<size_t>(jj)])) +=
                wk * ei * p.exp_coef[static_cast<size_t>(jj)];
          }
        }
      }
    }
    // (w_outer - w_hess) * g gᵀ piece (dense but only over support).
    const double wo = w_outer - w_hess;
    if (wo != 0.0) {
      for (size_t i = 0; i < n; ++i) {
        if (ws->g[i] == 0.0) continue;
        for (size_t j = 0; j < n; ++j) {
          if (ws->g[j] == 0.0) continue;
          (*hess)(i, j) += wo * ws->g[i] * ws->g[j];
        }
      }
    }
  }
  if (g_out != nullptr) g_out->assign(ws->g.begin(), ws->g.end());
  return f;
}

/// Barrier value phi(y) = t*F0(y) - Σ log(-Fi(y)); +inf when infeasible.
double BarrierValue(const ConvexGp& cg, const Vector& y, double t,
                    Workspace* ws) {
  double phi = t * cg.objective.Value(y, &ws->z);
  for (const SoaPosy& c : cg.constraints) {
    const double fi = c.Value(y, &ws->z);
    if (fi >= 0.0) return kInf;
    phi -= std::log(-fi);
  }
  return phi;
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
  while (counted < opt.max_newton_per_stage && iter < hard_cap) {
    ws->grad.assign(n, 0.0);
    ws->hess.Resize(n, n);
    Accumulate(cg.objective, *y, t, t, 0.0, &ws->grad, &ws->hess, nullptr,
               ws);
    for (const SoaPosy& c : cg.constraints) {
      // First pass for the value only (cheap); needed for the weights.
      const double fi = c.Value(*y, &ws->z);
      if (fi >= 0.0) {
        return Status::Internal("barrier stage entered infeasible point");
      }
      const double inv = 1.0 / (-fi);
      // d/dy [-log(-Fi)] = grad Fi / (-Fi);
      // d2    = Hess Fi/(-Fi) + grad grad^T / Fi^2.
      Accumulate(c, *y, inv, inv, 1.0 / (fi * fi), &ws->grad, &ws->hess,
                 nullptr, ws);
    }

    auto step = SolveCholesky(ws->hess, ws->grad);
    if (!step.ok()) return step.status();
    Vector d = std::move(step).value();
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
        auto dstep = SolveCholesky(ws->hess, ws->grad, reg);
        if (dstep.ok()) {
          Vector d2 = std::move(dstep).value();
          for (double& di : d2) di = -di;
          if (InfNorm(d2) <= kMaxStepInf) {
            d = std::move(d2);
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
    const double phi0 = BarrierValue(cg, *y, t, ws);
    double alpha = 1.0;
    ws->y_new.resize(n);
    for (int ls = 0; ls < 60; ++ls) {
      for (size_t j = 0; j < n; ++j) ws->y_new[j] = (*y)[j] + alpha * d[j];
      const double phi1 = BarrierValue(cg, ws->y_new, t, ws);
      if (phi1 <= phi0 - 0.25 * alpha * lambda2) break;
      alpha *= 0.5;
      ++stats->line_search_backtracks;
      if (alpha < 1e-14) {
        // No descent possible: already at numerical optimum for this t.
        return iter;
      }
    }
    *y = ws->y_new;
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
  Vector y = y0;
  double s = 0.0;
  for (const SoaPosy& c : cg.constraints) {
    s = std::max(s, c.Value(y, &ws->z));
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
      bool bail = false;
      for (const SoaPosy& c : cg.constraints) {
        const double fi =
            Accumulate(c, y, 0.0, 0.0, 0.0, nullptr, nullptr, &ws->gi, ws);
        const double gap = s - fi;
        if (gap <= 0.0) {
          bail = true;
          break;
        }
        const double inv = 1.0 / gap;
        // Accumulate again with Hessian weights for the y-block:
        // H_i/gap + g_i g_iᵀ/gap².
        ws->hblock.Resize(n, n);
        Accumulate(c, y, 0.0, inv, inv * inv, nullptr, &ws->hblock, nullptr,
                   ws);
        for (size_t i = 0; i < n; ++i) {
          ws->grad[i] += inv * ws->gi[i];
          for (size_t j = 0; j < n; ++j) {
            ws->hess(i, j) += ws->hblock(i, j);
          }
          ws->hess(i, n) += -inv * inv * ws->gi[i];
          ws->hess(n, i) += -inv * inv * ws->gi[i];
        }
        ws->grad[n] += -inv;
        ws->hess(n, n) += inv * inv;
      }
      if (bail) break;

      auto step = SolveCholesky(ws->hess, ws->grad);
      if (!step.ok()) return step.status();
      Vector d = std::move(step).value();
      for (double& di : d) di = -di;
      double lambda2 = -Dot(ws->grad, d);
      if (lambda2 / 2.0 < opt.inner_tol) break;
      lambda2 *= ClampStep(&d);

      // Line search maintaining s - Fi(y) > 0. Phase I only needs *a*
      // strictly feasible point, so accept any trial that achieves one.
      double val0 = t * s;
      for (const SoaPosy& c : cg.constraints) {
        val0 -= std::log(s - c.Value(y, &ws->z));
      }
      double alpha = 1.0;
      ws->y_try.resize(n);
      for (int ls = 0; ls < 60; ++ls) {
        for (size_t j = 0; j < n; ++j) ws->y_try[j] = y[j] + alpha * d[j];
        const double s_try = s + alpha * d[n];
        bool feas = true;
        double max_f = -kInf;
        double val = t * s_try;
        for (const SoaPosy& c : cg.constraints) {
          const double fi = c.Value(ws->y_try, &ws->z);
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
      if (alpha < 1e-14) break;
      for (size_t j = 0; j < n; ++j) y[j] += alpha * d[j];
      s += alpha * d[n];
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

double SoaPosy::Value(const Vector& y, Vector* z) const {
  const int nt = num_terms();
  z->resize(static_cast<size_t>(nt));
  for (int k = 0; k < nt; ++k) {
    double s = logc[static_cast<size_t>(k)];
    for (int idx = term_off[static_cast<size_t>(k)];
         idx < term_off[static_cast<size_t>(k) + 1]; ++idx) {
      s += exp_coef[static_cast<size_t>(idx)] *
           y[static_cast<size_t>(exp_var[static_cast<size_t>(idx)])];
    }
    (*z)[static_cast<size_t>(k)] = s;
  }
  return LogSumExp(*z);
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
      Vector y_stage = *yy;
      Result<int> iters = CenterStep(cg, t, options, yy, stats, ws, false);
      if (!iters.ok() &&
          iters.status().code() == StatusCode::kNotConverged) {
        *yy = y_stage;
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
      for (const SoaPosy& c : cg.constraints) {
        if (c.Value(y, &ws->z) >= -kWarmFeasMargin) {
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
