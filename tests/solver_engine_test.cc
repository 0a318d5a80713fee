// Solver-correctness and solve-engine tests (docs/SOLVER.md):
//
//  1. Regressions for the solver-robustness sweep — boundary warm points
//     must be rejected with a margin, clamped trust-region travel must
//     not burn the Newton stage budget, near-singular programs must
//     converge through the Levenberg-damped retry.
//  2. The memoizing SolveEngine must be bit-identical to the direct
//     SolveGp path: per solve, through the skeleton pool, and on cache
//     hits — including the gp.solver.* instrument replay.
//  3. A property sweep over random programs x mu weights: warm and cold
//     solves agree to tolerance, uniform objective scaling preserves the
//     argmin, and engine telemetry is deterministic across identical
//     runs.
//  4. Barrier-kernel guards: a seeded sweep through every solver path
//     must fold to a pinned digest of result and stats bits, and a warm
//     workspace must keep the Newton loop off the heap.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gp/gp_solver.h"
#include "gp/solve_engine.h"
#include "gp/solver_internal.h"
#include "obs/metrics.h"

namespace {
/// operator new calls made by this thread (see the replacement below).
thread_local int64_t t_news = 0;
}  // namespace

// Counting replacement of the global allocator, for the allocation guard.
void* operator new(std::size_t size) {
  ++t_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace polydab::gp {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectBitIdentical(const GpSolution& a, const GpSolution& b,
                        const std::string& label) {
  ASSERT_EQ(a.x.size(), b.x.size()) << label;
  for (size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_TRUE(SameBits(a.x[i], b.x[i]))
        << label << " x[" << i << "]: " << a.x[i] << " vs " << b.x[i];
  }
  EXPECT_TRUE(SameBits(a.objective, b.objective)) << label;
  EXPECT_EQ(a.newton_iterations, b.newton_iterations) << label;
}

/// A random bounded GP in the shape the planner produces: an objective
/// that wants every variable large (inverse-power terms, scaled by mu)
/// against positive-exponent capacity constraints that cap them. Strictly
/// feasible (x -> 0 satisfies every constraint) and bounded (the
/// objective blows up at 0, the constraints bind at infinity).
GpProblem RandomProgram(uint64_t seed, double mu) {
  Rng rng(seed);
  GpProblem gp;
  const int k = static_cast<int>(rng.UniformInt(1, 4));
  gp.num_vars = k;
  for (int i = 0; i < k; ++i) {
    gp.objective.AddTerm(mu * rng.Uniform(0.5, 5.0),
                         {{i, -0.5 * static_cast<double>(
                                   rng.UniformInt(1, 4))}});
  }
  Posynomial coupling;
  for (int i = 0; i < k; ++i) {
    coupling.AddTerm(rng.Uniform(0.1, 1.0),
                     {{i, 0.5 * static_cast<double>(rng.UniformInt(1, 4))}});
  }
  gp.constraints.push_back(std::move(coupling));
  for (int i = 0; i < k; ++i) {
    if (rng.Bernoulli(0.5)) {
      Posynomial cap;
      cap.AddTerm(rng.Uniform(0.2, 2.0), {{i, 1.0}});
      gp.constraints.push_back(std::move(cap));
    }
  }
  return gp;
}

constexpr int kSweepPrograms = 200;

// ---------------------------------------------------------------------
// Solver-robustness regressions.

TEST(SolverRobustnessTest, BoundaryWarmPointGoesThroughPhaseOne) {
  // minimize (x1*x2)^-1 s.t. x1*x2 <= 1. The warm point sits epsilon
  // inside the constraint: F = log(1 - 1e-13) ~ -1e-13 < 0, so the raw
  // probe called it strictly feasible, but the barrier Hessian's 1/F^2
  // factor (~1e26) made the first centering stage diverge. The
  // feasibility margin must route such points through phase I instead:
  // the solve succeeds as a phase-I solve, with no warm-trusted descent
  // and no cold restart.
  GpProblem gp;
  gp.num_vars = 2;
  gp.objective.AddTerm(1.0, {{0, -1.0}, {1, -1.0}});
  Posynomial c;
  c.AddTerm(1.0, {{0, 1.0}, {1, 1.0}});
  gp.constraints.push_back(std::move(c));

  Vector warm = {1.0 - 1e-13, 1.0};
  obs::MetricRegistry registry;
  SolverOptions options;
  options.registry = &registry;
  auto sol = SolveGp(gp, options, &warm);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->objective, 1.0, 1e-4);
  EXPECT_EQ(registry.GetCounter("gp.solver.warm_started_solves")->value(), 1);
  EXPECT_EQ(registry.GetCounter("gp.solver.warm_start_feasible")->value(), 0);
  EXPECT_EQ(registry.GetCounter("gp.solver.phase1_solves")->value(), 1);
  EXPECT_EQ(registry.GetCounter("gp.solver.cold_restarts")->value(), 0);
  EXPECT_EQ(registry.GetCounter("gp.solver.converged")->value(), 1);
}

TEST(SolverRobustnessTest, ClampedTravelDoesNotBurnStageBudget) {
  // minimize x^-1 s.t. 1e-12*x <= 1: the optimum sits on the boundary at
  // x = 1e12, a log-space distance of ~27.6 from the cold start y = 0.
  // The monomial objective is linear in y, so far from the boundary the
  // Hessian is nearly zero and every Newton direction blows past the
  // kMaxStepInf=5 trust region — the first centering stage is ~6 clamped
  // travel steps before refinement can even start. Charging travel
  // against max_newton_per_stage fails the stage outright (the whole
  // solve takes 33 Newton iterations); budget-free travel converges
  // within a 6-step budget, without needing the damped retry.
  GpProblem gp;
  gp.num_vars = 1;
  gp.objective.AddTerm(1.0, {{0, -1.0}});
  Posynomial cap;
  cap.AddTerm(1e-12, {{0, 1.0}});
  gp.constraints.push_back(std::move(cap));

  obs::MetricRegistry registry;
  SolverOptions options;
  options.registry = &registry;
  options.max_newton_per_stage = 6;
  auto sol = SolveGp(gp, options);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->x[0], 1e12, 1e9);
  EXPECT_NEAR(sol->objective, 1e-12, 1e-15);
  EXPECT_GT(sol->newton_iterations, 6);  // travel really was budget-free
  EXPECT_EQ(registry.GetCounter("gp.solver.damped_stages")->value(), 0);
  EXPECT_EQ(registry.GetCounter("gp.solver.failures")->value(), 0);
}

TEST(SolverRobustnessTest, SingularHessianValleyConverges) {
  // minimize x*y + (x*y)^-1: optimal anywhere on the curve x*y = 1, so
  // the log-space Hessian is exactly singular along y1 - y2. The solve
  // must still converge (Cholesky ridge retry + damped stage retry) to
  // objective 2.
  GpProblem gp;
  gp.num_vars = 2;
  gp.objective.AddTerm(1.0, {{0, 1.0}, {1, 1.0}});
  gp.objective.AddTerm(1.0, {{0, -1.0}, {1, -1.0}});

  auto sol = SolveGp(gp);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->objective, 2.0, 1e-4);
  EXPECT_NEAR(sol->x[0] * sol->x[1], 1.0, 1e-4);
}

// ---------------------------------------------------------------------
// Property sweep: random programs x mu weights.

TEST(SolverSweepTest, WarmAndColdSolvesAgreeAcrossRandomPrograms) {
  obs::MetricRegistry registry;
  SolverOptions options;
  options.registry = &registry;
  int warm_checked = 0;
  for (int p = 0; p < kSweepPrograms; ++p) {
    for (double mu : {1.0, 5.0, 20.0}) {
      const GpProblem gp = RandomProgram(1000 + static_cast<uint64_t>(p), mu);
      auto cold = SolveGp(gp, options);
      ASSERT_TRUE(cold.ok()) << "p=" << p << " mu=" << mu << ": "
                             << cold.status().ToString();
      // A strictly interior warm point near the optimum: shrinking every
      // coordinate strictly reduces each positive-exponent constraint.
      Vector warm = cold->x;
      for (double& w : warm) w *= 0.9;
      auto warm_sol = SolveGp(gp, options, &warm);
      ASSERT_TRUE(warm_sol.ok()) << "p=" << p << " mu=" << mu << ": "
                                 << warm_sol.status().ToString();
      EXPECT_NEAR(warm_sol->objective, cold->objective,
                  1e-5 * cold->objective)
          << "p=" << p << " mu=" << mu;
      ++warm_checked;
    }
  }
  EXPECT_EQ(warm_checked, kSweepPrograms * 3);
  // The sweep must actually exercise the warm-trusted path, not funnel
  // everything through phase I.
  EXPECT_GE(registry.GetCounter("gp.solver.warm_start_feasible")->value(),
            kSweepPrograms);
  EXPECT_EQ(registry.GetCounter("gp.solver.failures")->value(), 0);
}

TEST(SolverSweepTest, UniformObjectiveScalingPreservesArgmin) {
  for (int p = 0; p < kSweepPrograms; ++p) {
    // Same seed => identical structure and coefficients up to the mu
    // factor on the objective, which cannot move the argmin.
    const GpProblem a = RandomProgram(5000 + static_cast<uint64_t>(p), 1.0);
    const GpProblem b = RandomProgram(5000 + static_cast<uint64_t>(p), 20.0);
    auto sa = SolveGp(a);
    auto sb = SolveGp(b);
    ASSERT_TRUE(sa.ok()) << "p=" << p;
    ASSERT_TRUE(sb.ok()) << "p=" << p;
    ASSERT_EQ(sa->x.size(), sb->x.size());
    for (size_t i = 0; i < sa->x.size(); ++i) {
      EXPECT_NEAR(sb->x[i], sa->x[i], 5e-3 * sa->x[i])
          << "p=" << p << " x[" << i << "]";
    }
    EXPECT_NEAR(sb->objective, 20.0 * sa->objective, 1e-4 * sb->objective)
        << "p=" << p;
  }
}

// ---------------------------------------------------------------------
// Engine bit-identity and telemetry.

TEST(SolveEngineTest, EngineSolveIsBitIdenticalToDirectSolve) {
  SolveEngine::Options eopt;
  eopt.cache_entries = 0;  // pure workspace sharing, no memo
  SolveEngine engine(eopt);
  // Two passes over the same programs: with the memo off, the repeat pass
  // re-solves every program through the pooled skeletons, where identical
  // coefficient bits must hit the cached-logarithm fast path.
  for (int pass = 0; pass < 2; ++pass) {
    for (int p = 0; p < kSweepPrograms; ++p) {
      const GpProblem gp =
          RandomProgram(1000 + static_cast<uint64_t>(p), 5.0);
      SolverOptions direct_opt;
      auto direct = SolveGp(gp, direct_opt);
      SolverOptions engine_opt;
      engine_opt.engine = &engine;
      auto routed = SolveGp(gp, engine_opt);
      ASSERT_EQ(direct.ok(), routed.ok()) << "p=" << p;
      ASSERT_TRUE(direct.ok()) << "p=" << p;
      ExpectBitIdentical(*direct, *routed, "p=" + std::to_string(p));
    }
  }
  // Many of the programs share a shape signature, so the skeleton pool
  // must have been reused, and the repeat pass must have skipped
  // recomputing logs of unchanged coefficients.
  EXPECT_GT(engine.structure_reuses(), 0);
  EXPECT_GT(engine.coef_log_skips(), 0);
  EXPECT_EQ(engine.cache_hits(), 0);
}

TEST(SolveEngineTest, CacheHitIsBitIdenticalAndReplaysInstruments) {
  const GpProblem gp = RandomProgram(42, 5.0);
  SolverOptions options;
  auto cold = SolveGp(gp, options);
  ASSERT_TRUE(cold.ok());
  Vector warm = cold->x;
  for (double& w : warm) w *= 0.9;

  // Oracle: two direct solves of the same inputs into registry A.
  obs::MetricRegistry reg_direct;
  SolverOptions direct_opt;
  direct_opt.registry = &reg_direct;
  auto d1 = SolveGp(gp, direct_opt, &warm);
  auto d2 = SolveGp(gp, direct_opt, &warm);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  ExpectBitIdentical(*d1, *d2, "direct repeat");

  // Engine with memo: second solve is a cache hit, bit-identical, and
  // registry B's gp.solver.* totals match registry A's exactly.
  obs::MetricRegistry reg_engine;
  SolveEngine::Options eopt;
  eopt.cache_entries = 16;
  SolveEngine engine(eopt);
  SolverOptions engine_opt;
  engine_opt.registry = &reg_engine;
  engine_opt.engine = &engine;
  auto e1 = SolveGp(gp, engine_opt, &warm);
  auto e2 = SolveGp(gp, engine_opt, &warm);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  ExpectBitIdentical(*d1, *e1, "engine miss");
  ExpectBitIdentical(*d1, *e2, "engine hit");
  EXPECT_EQ(engine.cache_hits(), 1);
  EXPECT_EQ(engine.cache_misses(), 1);

  for (const auto& entry : reg_direct.Entries()) {
    if (entry.kind == obs::InstrumentKind::kCounter) {
      EXPECT_EQ(reg_engine.GetCounter(entry.name)->value(),
                entry.counter->value())
          << entry.name;
    } else if (entry.kind == obs::InstrumentKind::kHistogram) {
      // Wall-clock sums differ run to run; the sample counts must not.
      EXPECT_EQ(reg_engine.GetHistogram(entry.name)->count(),
                entry.histogram->count())
          << entry.name;
    }
  }
}

TEST(SolveEngineTest, CacheKeyDiscriminatesWarmAndNumerics) {
  const GpProblem gp = RandomProgram(42, 5.0);
  SolveEngine::Options eopt;
  eopt.cache_entries = 16;
  SolveEngine engine(eopt);
  SolverOptions options;
  ASSERT_TRUE(engine.Solve(gp, options, nullptr).ok());
  // Same program, different warm/options bits: must all miss.
  Vector warm = {0.5, 0.5, 0.5, 0.5};
  warm.resize(static_cast<size_t>(gp.num_vars), 0.5);
  ASSERT_TRUE(engine.Solve(gp, options, &warm).ok());
  SolverOptions tighter = options;
  tighter.duality_tol = 1e-8;
  ASSERT_TRUE(engine.Solve(gp, tighter, nullptr).ok());
  EXPECT_EQ(engine.cache_hits(), 0);
  EXPECT_EQ(engine.cache_misses(), 3);
  // Exact repeats of all three: all hits.
  ASSERT_TRUE(engine.Solve(gp, options, nullptr).ok());
  ASSERT_TRUE(engine.Solve(gp, options, &warm).ok());
  ASSERT_TRUE(engine.Solve(gp, tighter, nullptr).ok());
  EXPECT_EQ(engine.cache_hits(), 3);
  EXPECT_EQ(engine.cache_misses(), 3);
}

TEST(SolveEngineTest, LruEvictsBeyondCapacity) {
  SolveEngine::Options eopt;
  eopt.cache_entries = 2;
  SolveEngine engine(eopt);
  SolverOptions options;
  const GpProblem a = RandomProgram(1, 1.0);
  const GpProblem b = RandomProgram(2, 1.0);
  const GpProblem c = RandomProgram(3, 1.0);
  ASSERT_TRUE(engine.Solve(a, options, nullptr).ok());
  ASSERT_TRUE(engine.Solve(b, options, nullptr).ok());
  ASSERT_TRUE(engine.Solve(c, options, nullptr).ok());  // evicts a
  ASSERT_TRUE(engine.Solve(a, options, nullptr).ok());  // miss again
  EXPECT_EQ(engine.cache_hits(), 0);
  EXPECT_EQ(engine.cache_misses(), 4);
  ASSERT_TRUE(engine.Solve(a, options, nullptr).ok());  // now cached
  EXPECT_EQ(engine.cache_hits(), 1);
}

TEST(SolveEngineTest, TelemetryIsDeterministicAcrossIdenticalRuns) {
  auto run = [](SolveEngine* engine, std::vector<GpSolution>* out) {
    SolverOptions options;
    for (int rep = 0; rep < 2; ++rep) {
      for (int p = 0; p < 50; ++p) {
        const GpProblem gp =
            RandomProgram(3000 + static_cast<uint64_t>(p % 25), 5.0);
        auto sol = engine->Solve(gp, options, nullptr);
        ASSERT_TRUE(sol.ok());
        out->push_back(*sol);
      }
    }
  };
  SolveEngine::Options eopt;
  eopt.cache_entries = 64;
  SolveEngine e1(eopt), e2(eopt);
  std::vector<GpSolution> r1, r2;
  run(&e1, &r1);
  run(&e2, &r2);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    ExpectBitIdentical(r1[i], r2[i], "i=" + std::to_string(i));
  }
  EXPECT_EQ(e1.cache_hits(), e2.cache_hits());
  EXPECT_EQ(e1.cache_misses(), e2.cache_misses());
  EXPECT_EQ(e1.structure_reuses(), e2.structure_reuses());
  EXPECT_EQ(e1.coef_log_skips(), e2.coef_log_skips());
  // 25 distinct programs solved 4 times each: 25 misses, 75 hits.
  EXPECT_EQ(e1.cache_misses(), 25);
  EXPECT_EQ(e1.cache_hits(), 75);
}

TEST(SolveEngineTest, InvalidProblemFailsLikeDirectSolve) {
  GpProblem bad;  // empty objective
  SolveEngine::Options eopt;
  SolveEngine engine(eopt);
  SolverOptions options;
  auto direct = SolveGp(bad, options);
  auto routed = engine.Solve(bad, options, nullptr);
  ASSERT_FALSE(direct.ok());
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(direct.status().code(), routed.status().code());
}

// ---------------------------------------------------------------------
// Barrier-kernel guards.

/// FNV-1a over raw 64-bit words.
struct Fnv64 {
  uint64_t h = 1469598103934665603ull;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void MixInt(int64_t v) { Mix(static_cast<uint64_t>(v)); }
  void MixDouble(double v) { Mix(std::bit_cast<uint64_t>(v)); }
};

/// A random program with multi-variable terms and mixed-sign exponents in
/// every constraint, so the Hessian has off-diagonal cells and phase I
/// works on coupled constraints.
GpProblem MixedProgram(uint64_t seed) {
  Rng rng(seed);
  GpProblem gp;
  const int n = static_cast<int>(rng.UniformInt(2, 6));
  gp.num_vars = n;
  for (int v = 0; v < n; ++v) {
    gp.objective.AddTerm(rng.Uniform(0.5, 3.0), {{v, -1.0}});
    gp.objective.AddTerm(rng.Uniform(0.01, 0.1), {{v, 1.0}});
  }
  const int m = static_cast<int>(rng.UniformInt(1, 4));
  for (int c = 0; c < m; ++c) {
    Posynomial p;
    const int terms = static_cast<int>(rng.UniformInt(1, 4));
    for (int t = 0; t < terms; ++t) {
      std::vector<std::pair<int, double>> exps;
      const int k = 1 + static_cast<int>(rng.UniformInt(0, 2));
      for (int j = 0; j < k; ++j) {
        exps.emplace_back(static_cast<int>(rng.UniformInt(0, n - 1)),
                          rng.Uniform(-2.0, 2.0));
      }
      p.AddTerm(rng.Uniform(0.1, 0.3), std::move(exps));
    }
    gp.constraints.push_back(std::move(p));
  }
  return gp;
}

/// minimize x^-1 s.t. cap*x <= 1: the optimum 1/cap is ~log(1/cap) away
/// from the cold start in log space (see ClampedTravelDoesNotBurnStage-
/// Budget), so small caps cost many clamped travel steps.
GpProblem TravelProgram(double cap) {
  GpProblem gp;
  gp.num_vars = 1;
  gp.objective.AddTerm(1.0, {{0, -1.0}});
  Posynomial c;
  c.AddTerm(cap, {{0, 1.0}});
  gp.constraints.push_back(std::move(c));
  return gp;
}

/// minimize x*y + (x*y)^-1: singular log-space Hessian, so the Newton
/// system needs the Cholesky ridge retry.
GpProblem ValleyProgram() {
  GpProblem gp;
  gp.num_vars = 2;
  gp.objective.AddTerm(1.0, {{0, 1.0}, {1, 1.0}});
  gp.objective.AddTerm(1.0, {{0, -1.0}, {1, -1.0}});
  return gp;
}

Vector Scaled(const Vector& x, double f) {
  Vector out = x;
  for (double& v : out) v *= f;
  return out;
}

Result<GpSolution> SolveIn(const GpProblem& gp, const SolverOptions& options,
                           const Vector* warm, SolveStats* stats,
                           internal::Workspace* ws) {
  internal::ConvexGp cg;
  internal::BuildConvexGp(gp, &cg);
  return internal::SolveConvexGp(gp, cg, options, warm, stats, ws);
}

TEST(SolverBitIdentityTest, SweepMatchesParentDigest) {
  // Every solver path folded into one digest of result and stats bits:
  // cold solves, warm-feasible descents, infeasible warm points (phase
  // I), warm failures with a cold restart (tiny stage budgets), damped
  // stage retries (including their ridge-solve loop: travel with a
  // budget of 2, mixed2/mixed7 cold at budget 3) and Cholesky ridge
  // retries (the valley, and several phase-I solves). All solves share
  // one workspace across shapes, which the kernel contract says cannot
  // change a bit. The constant was computed before the fused barrier
  // kernel landed; any arithmetic reorder in the kernel breaks it.
  constexpr uint64_t kParentDigest = 0x216842c2a9519fedull;
  internal::Workspace ws;
  Fnv64 digest;
  int solves = 0;
  bool saw_cold = false, saw_warm_feasible = false, saw_warm_phase1 = false,
       saw_cold_restart = false, saw_damped = false;
  auto solve = [&](const GpProblem& gp, const SolverOptions& options,
                   const Vector* warm) {
    SolveStats stats;
    auto sol = SolveIn(gp, options, warm, &stats, &ws);
    ++solves;
    digest.MixInt(static_cast<int64_t>(sol.ok() ? StatusCode::kOk
                                                : sol.status().code()));
    if (sol.ok()) {
      digest.MixInt(static_cast<int64_t>(sol->x.size()));
      for (double x : sol->x) digest.MixDouble(x);
      digest.MixDouble(sol->objective);
      digest.MixInt(sol->newton_iterations);
    }
    digest.MixInt(stats.newton_iterations);
    digest.MixInt(stats.line_search_backtracks);
    digest.MixInt(stats.damped_stages);
    digest.MixInt(stats.phase1);
    digest.MixInt(stats.warm_feasible);
    digest.MixInt(stats.cold_restart);
    saw_cold |= warm == nullptr && sol.ok();
    saw_warm_feasible |= stats.warm_feasible && sol.ok();
    saw_warm_phase1 |= warm != nullptr && stats.phase1 && !stats.cold_restart;
    saw_cold_restart |= stats.cold_restart;
    saw_damped |= stats.damped_stages > 0;
    return sol;
  };

  SolverOptions defaults;
  SolverOptions budget2 = defaults;
  budget2.max_newton_per_stage = 2;
  SolverOptions budget3 = defaults;
  budget3.max_newton_per_stage = 3;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    const GpProblem gp = MixedProgram(seed);
    auto cold = solve(gp, defaults, nullptr);
    ASSERT_TRUE(cold.ok()) << "mixed" << seed;
    const Vector inside = Scaled(cold->x, 0.95);
    const Vector outside = Scaled(cold->x, 4.0);
    solve(gp, defaults, &inside);
    solve(gp, defaults, &outside);
    solve(gp, budget2, &inside);
    solve(gp, budget3, nullptr);
  }
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const GpProblem gp = RandomProgram(1000 + seed, 5.0);
    auto cold = solve(gp, defaults, nullptr);
    ASSERT_TRUE(cold.ok()) << "random" << seed;
    const Vector inside = Scaled(cold->x, 0.9);
    solve(gp, defaults, &inside);
    solve(gp, budget2, &inside);
  }
  solve(ValleyProgram(), defaults, nullptr);
  for (int budget : {2, 6}) {
    SolverOptions options;
    options.max_newton_per_stage = budget;
    solve(TravelProgram(1e-12), options, nullptr);
  }

  EXPECT_EQ(solves, 12 * 5 + 6 * 3 + 3);
  EXPECT_TRUE(saw_cold);
  EXPECT_TRUE(saw_warm_feasible);
  EXPECT_TRUE(saw_warm_phase1);
  EXPECT_TRUE(saw_cold_restart);
  EXPECT_TRUE(saw_damped);
  EXPECT_EQ(digest.h, kParentDigest) << std::hex << "0x" << digest.h;
}

/// operator new calls one SolveConvexGp makes on this thread; the solve's
/// stats go to \p stats.
int64_t CountSolveNews(const GpProblem& gp, const internal::ConvexGp& cg,
                       const Vector& warm, internal::Workspace* ws,
                       SolveStats* stats) {
  const int64_t before = t_news;
  auto sol = internal::SolveConvexGp(gp, cg, SolverOptions{}, &warm, stats,
                                     ws);
  const int64_t news = t_news - before;
  EXPECT_TRUE(sol.ok()) << sol.status().ToString();
  return news;
}

TEST(SolverAllocationTest, NewtonLoopDoesNotAllocateOnceWarm) {
  // Two same-shape programs (one build, refilled coefficients) whose
  // solves take different numbers of Newton steps must make the same
  // number of heap allocations in a workspace warmed by one solve of the
  // shape: the per-solve result vectors, never anything per step.
  auto run = [](const Vector& warm, bool expect_phase1) {
    const GpProblem near = TravelProgram(1e-1);
    const GpProblem far = TravelProgram(1e-40);
    internal::ConvexGp cg;
    internal::BuildConvexGp(near, &cg);
    internal::Workspace ws;
    SolveStats warmup;
    CountSolveNews(near, cg, warm, &ws, &warmup);

    SolveStats near_stats;
    const int64_t near_news = CountSolveNews(near, cg, warm, &ws, &near_stats);
    ASSERT_TRUE(internal::StructureMatches(cg, far));
    internal::RefillCoefficients(far, &cg);
    SolveStats far_stats;
    const int64_t far_news = CountSolveNews(far, cg, warm, &ws, &far_stats);

    EXPECT_EQ(near_stats.phase1, expect_phase1);
    EXPECT_EQ(far_stats.phase1, expect_phase1);
    EXPECT_EQ(near_stats.warm_feasible, !expect_phase1);
    EXPECT_EQ(far_stats.warm_feasible, !expect_phase1);
    EXPECT_GE(std::abs(far_stats.newton_iterations -
                       near_stats.newton_iterations),
              5)
        << near_stats.newton_iterations << " vs "
        << far_stats.newton_iterations;
    EXPECT_EQ(near_news, far_news);
  };
  run({1e-3}, /*expect_phase1=*/false);  // strictly inside both caps
  run({1e45}, /*expect_phase1=*/true);   // outside both caps
}

}  // namespace
}  // namespace polydab::gp
