// Reproduces the §V-A "Solver" measurements with google-benchmark: the
// paper reports 40-70 ms per Dual-DAB PPQ solve and 600-750 ms for an AAO
// solve over 10 PPQs with CVXOPT on a 2.66 GHz P4. Our from-scratch
// barrier solver on modern hardware should be comfortably faster; the
// warm-started re-solve (what a coordinator actually runs on every
// recomputation) is the headline number.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/baseline.h"
#include "core/dual_dab.h"
#include "core/multi_query.h"
#include "core/optimal_refresh.h"
#include "gp/solve_engine.h"

namespace polydab::bench {
namespace {

struct Setup {
  std::vector<PolynomialQuery> queries;
  Vector values;
  Vector rates;
};

/// Portfolio queries over a 100-item universe, §V-A sizes (12-14 items).
Setup MakeSetup(int num_queries) {
  Rng rng(12345);
  workload::QueryGenConfig qc;
  Setup s;
  s.values.resize(100);
  s.rates.resize(100);
  for (size_t i = 0; i < 100; ++i) {
    s.values[i] = rng.Uniform(20.0, 200.0);
    s.rates[i] = rng.Uniform(0.005, 0.1);
  }
  s.queries =
      *workload::GeneratePortfolioQueries(num_queries, qc, s.values, &rng);
  return s;
}

void BM_OptimalRefreshPpq(benchmark::State& state) {
  Setup s = MakeSetup(1);
  for (auto _ : state) {
    auto d = core::SolveOptimalRefresh(s.queries[0], s.values, s.rates);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_OptimalRefreshPpq)->Unit(benchmark::kMillisecond);

void BM_DualDabPpqCold(benchmark::State& state) {
  Setup s = MakeSetup(1);
  core::DualDabParams params;
  params.mu = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto d = core::SolveDualDab(s.queries[0], s.values, s.rates, params);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DualDabPpqCold)->Arg(1)->Arg(5)->Arg(10)->Unit(
    benchmark::kMillisecond);

void BM_DualDabPpqWarm(benchmark::State& state) {
  // What a coordinator runs on every recomputation: re-solve after a small
  // value drift, warm-started from the previous assignment.
  Setup s = MakeSetup(1);
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  auto prev = core::SolveDualDab(s.queries[0], s.values, s.rates, params);
  if (!prev.ok()) {
    state.SkipWithError("setup solve failed");
    return;
  }
  Vector moved = s.values;
  for (double& v : moved) v *= 1.002;
  for (auto _ : state) {
    auto d = core::SolveDualDab(s.queries[0], moved, s.rates, params,
                                &*prev);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DualDabPpqWarm)->Unit(benchmark::kMillisecond);

void BM_DualDabPpqWarmInstrumented(benchmark::State& state) {
  // The warm re-solve with a telemetry registry attached — the delta
  // against BM_DualDabPpqWarm is the whole cost of the obs instruments
  // (docs/OBSERVABILITY.md documents it as lost in run-to-run noise).
  Setup s = MakeSetup(1);
  obs::MetricRegistry registry;
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  params.solver.registry = &registry;
  auto prev = core::SolveDualDab(s.queries[0], s.values, s.rates, params);
  if (!prev.ok()) {
    state.SkipWithError("setup solve failed");
    return;
  }
  Vector moved = s.values;
  for (double& v : moved) v *= 1.002;
  for (auto _ : state) {
    auto d = core::SolveDualDab(s.queries[0], moved, s.rates, params,
                                &*prev);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DualDabPpqWarmInstrumented)->Unit(benchmark::kMillisecond);

void BM_DualDabPpqEngineMiss(benchmark::State& state) {
  // The warm re-solve routed through the solve engine with the memo off:
  // the delta against BM_DualDabPpqWarm is the whole cost of the engine
  // detour (signature hash + pooled-skeleton acquire) on a miss.
  Setup s = MakeSetup(1);
  gp::SolveEngine::Options eopt;
  gp::SolveEngine engine(eopt);
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  params.solver.engine = &engine;
  auto prev = core::SolveDualDab(s.queries[0], s.values, s.rates, params);
  if (!prev.ok()) {
    state.SkipWithError("setup solve failed");
    return;
  }
  Vector moved = s.values;
  for (double& v : moved) v *= 1.002;
  for (auto _ : state) {
    auto d = core::SolveDualDab(s.queries[0], moved, s.rates, params,
                                &*prev);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DualDabPpqEngineMiss)->Unit(benchmark::kMillisecond);

void BM_DualDabPpqEngineHit(benchmark::State& state) {
  // The same re-solve when the memo already holds it — what an
  // EQI-equivalent query across users costs: digest + bitwise verify +
  // instrument replay instead of a barrier solve.
  Setup s = MakeSetup(1);
  gp::SolveEngine::Options eopt;
  eopt.cache_entries = 64;
  gp::SolveEngine engine(eopt);
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  params.solver.engine = &engine;
  auto prev = core::SolveDualDab(s.queries[0], s.values, s.rates, params);
  if (!prev.ok()) {
    state.SkipWithError("setup solve failed");
    return;
  }
  Vector moved = s.values;
  for (double& v : moved) v *= 1.002;
  // Prime the memo so every timed iteration is a hit.
  if (!core::SolveDualDab(s.queries[0], moved, s.rates, params, &*prev)
           .ok()) {
    state.SkipWithError("priming solve failed");
    return;
  }
  for (auto _ : state) {
    auto d = core::SolveDualDab(s.queries[0], moved, s.rates, params,
                                &*prev);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
  if (engine.cache_hits() == 0) state.SkipWithError("memo never hit");
}
BENCHMARK(BM_DualDabPpqEngineHit)->Unit(benchmark::kMillisecond);

void BM_AaoTenPpqs(benchmark::State& state) {
  Setup s = MakeSetup(10);
  core::DualDabParams params;
  params.mu = core::kDefaultMu;
  for (auto _ : state) {
    auto d = core::SolveAao(s.queries, s.values, s.rates, params);
    if (!d.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_AaoTenPpqs)->Unit(benchmark::kMillisecond);

void BM_WsDabBaseline(benchmark::State& state) {
  // The 20-query portfolio set of the perfbench service_churn workload
  // (100 items, §V-A query sizes): one iteration solves every query once.
  // per_solve is the mean wall time of one SolveWsDab.
  Setup s = MakeSetup(20);
  for (auto _ : state) {
    for (const PolynomialQuery& q : s.queries) {
      auto d = core::SolveWsDab(q, s.values);
      if (!d.ok()) state.SkipWithError("solve failed");
      benchmark::DoNotOptimize(d);
    }
  }
  state.counters["per_solve"] = benchmark::Counter(
      static_cast<double>(state.iterations() * s.queries.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WsDabBaseline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace polydab::bench

BENCHMARK_MAIN();
