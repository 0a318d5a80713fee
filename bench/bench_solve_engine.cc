// Memoizing solve-engine sweep (src/gp/solve_engine.h, docs/SOLVER.md):
// wall clock and recomputes/sec vs the SimConfig solve-cache knob on a
// saturated coordinator — every refresh recomputes (kOptimalRefresh), and
// each base portfolio query is duplicated across several simulated users.
// The refresh service solves each service's group of bitwise-equal parts
// once whatever the engine setting, so the memo only sees the distinct
// solves and can hit only on repeats across services. Every deterministic
// protocol counter must be identical across the whole sweep (byte-identity
// is the engine's core contract — the bench hard-fails otherwise), so the
// only columns allowed to move are the wall-clock ones and the engine's
// own hit/miss telemetry. Mirrors the table
// into BENCH_solve_engine.json; the ctest gate (bench_solve_engine_gate)
// re-runs the quick scale and diffs it against the committed baseline with
// bench_compare, which tolerates only the *_s / *_seconds fields.
//
// Scales: POLYDAB_BENCH_QUICK=1 is the seconds-long ctest scale,
// REPRO_FULL=1 the paper scale, default in between. The speedup column
// reads the memo's own gain on top of the in-service grouping; the
// hits/misses columns show how few repeats it finds.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace polydab::bench {
namespace {

Status Run() {
  const int items = ByScale(24, 60, 60);
  const int ticks = ByScale(300, 2000, 10000);
  const int base_queries = ByScale(8, 30, 60);
  const int dup_factor = 4;  // simulated users per base query
  POLYDAB_ASSIGN_OR_RETURN(
      const Universe u,
      MakeUniverse(workload::TraceKind::kGbmStock, 9001, items, ticks));
  workload::QueryGenConfig qc;
  qc.num_items = items;
  Rng qrng(48);
  POLYDAB_ASSIGN_OR_RETURN(
      const std::vector<PolynomialQuery> base,
      workload::GeneratePortfolioQueries(base_queries, qc, u.initial, &qrng));
  // Duplicate each base query under fresh ids: distinct registrations
  // whose per-part GPs are bitwise identical. Each refresh service solves
  // such a group once and copies the result, so the duplicates reach
  // neither the solver nor the memo.
  std::vector<PolynomialQuery> queries;
  queries.reserve(base.size() * dup_factor);
  int next_id = 0;
  for (int d = 0; d < dup_factor; ++d) {
    for (const PolynomialQuery& q : base) {
      queries.push_back(q);
      queries.back().id = next_id++;
    }
  }

  Table t({"config", "cache", "recomps", "hits", "misses", "wall_s",
           "recomps/s", "speedup"});
  std::vector<BenchRow> json;
  HarnessTimer timer;
  sim::SimMetrics oracle;
  double oracle_wall = 0.0;
  for (const auto& [label, cache] : {std::pair{"engine-off", 0},
                                     std::pair{"cache", 4096}}) {
    sim::SimConfig c;
    // Recompute on every refresh: puts the GP solves on the critical
    // path, which is the hot path the engine exists to serve.
    c.planner.method = core::AssignmentMethod::kOptimalRefresh;
    c.planner.dual.mu = 1.0;
    c.seed = 99;
    c.solve_cache = cache;
    obs::MetricRegistry reg;
    c.registry = &reg;
    obs::ScopedTimer timed = timer.Section(std::string("bench.run.") + label);
    POLYDAB_ASSIGN_OR_RETURN(const sim::SimMetrics m,
                             sim::RunSimulation(queries, u.traces, u.rates, c));
    const double wall_seconds = timed.Stop();
    if (cache == 0) {
      oracle = m;
      oracle_wall = wall_seconds;
    }
    // The engine's contract: the memo is invisible to every
    // protocol-level outcome.
    POLYDAB_RETURN_NOT_OK(SameCounters(label, oracle, m));
    const int64_t hits = reg.GetCounter("gp.engine.cache_hits")->value();
    const int64_t misses = reg.GetCounter("gp.engine.cache_misses")->value();
    const double rps =
        wall_seconds > 0.0
            ? static_cast<double>(m.recomputations) / wall_seconds
            : 0.0;
    t.AddRow({label, Fmt(static_cast<int64_t>(cache)), Fmt(m.recomputations),
              Fmt(hits), Fmt(misses), Fmt(wall_seconds, 3), Fmt(rps, 1),
              Fmt(wall_seconds > 0.0 ? oracle_wall / wall_seconds : 0.0, 2)});
    json.push_back(BenchRow()
                       .Str("config", label)
                       .Num("solve_cache", cache)
                       .Num("refreshes", m.refreshes)
                       .Num("recomputations", m.recomputations)
                       .Num("dab_changes", m.dab_change_messages)
                       .Num("user_notifications", m.user_notifications)
                       .Num("solver_failures", m.solver_failures)
                       .Num("mean_fidelity_loss_pct", m.mean_fidelity_loss_pct)
                       .Num("cache_hits", hits)
                       .Num("cache_misses", misses)
                       .Num("wall_seconds", wall_seconds)
                       .Num("recomputes_per_s", rps));
  }
  std::printf("=== Solve-engine sweep (%d base PPQs x%d users, %d items, "
              "%d ticks, recompute-always) ===\n",
              base_queries, dup_factor, items, ticks);
  t.Print();
  timer.PrintSummary();
  return WriteBenchJson("BENCH_solve_engine.json", json);
}

}  // namespace
}  // namespace polydab::bench

int main() {
  return polydab::bench::ExitCode("bench_solve_engine",
                                  polydab::bench::Run());
}
