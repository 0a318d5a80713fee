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
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace polydab::bench {
namespace {

bool QuickScale() {
  const char* env = std::getenv("POLYDAB_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

struct Row {
  std::string config;
  int solve_cache;
  int64_t refreshes;
  int64_t recomputations;
  int64_t dab_changes;
  int64_t notifications;
  int64_t solver_failures;
  double loss_pct;
  int64_t cache_hits;
  int64_t cache_misses;
  double wall_seconds;
};

int Run() {
  const int items = QuickScale() ? 24 : 60;
  const int ticks = QuickScale() ? 300 : (FullScale() ? 10000 : 2000);
  const int base_queries = QuickScale() ? 8 : (FullScale() ? 60 : 30);
  const int dup_factor = 4;  // simulated users per base query
  const Universe u =
      MakeUniverse(workload::TraceKind::kGbmStock, 9001, items, ticks);
  workload::QueryGenConfig qc;
  qc.num_items = items;
  Rng qrng(48);
  auto base = *workload::GeneratePortfolioQueries(base_queries, qc,
                                                  u.initial, &qrng);
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

  struct Knobs {
    const char* label;
    int cache;
  };
  const std::vector<Knobs> sweep = {
      {"engine-off", 0},
      {"cache", 4096},
  };

  std::vector<Row> rows;
  HarnessTimer timer;
  for (const Knobs& k : sweep) {
    sim::SimConfig c;
    // Recompute on every refresh: puts the GP solves on the critical
    // path, which is the hot path the engine exists to serve.
    c.planner.method = core::AssignmentMethod::kOptimalRefresh;
    c.planner.dual.mu = 1.0;
    c.seed = 99;
    c.solve_cache = k.cache;
    obs::MetricRegistry reg;
    c.registry = &reg;
    const std::string section = std::string("bench.run.") + k.label;
    sim::SimMetrics m;
    {
      auto t = timer.Section(section);
      auto r = sim::RunSimulation(queries, u.traces, u.rates, c);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", section.c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
      m = *r;
    }
    rows.push_back(
        Row{k.label, k.cache, m.refreshes, m.recomputations,
            m.dab_change_messages, m.user_notifications, m.solver_failures,
            m.mean_fidelity_loss_pct,
            reg.GetCounter("gp.engine.cache_hits")->value(),
            reg.GetCounter("gp.engine.cache_misses")->value(),
            timer.registry()->GetHistogram(section)->sum()});
  }

  // The engine's contract: the memo is invisible to every protocol-level
  // outcome. A single diverged counter makes the wall-clock column
  // meaningless, so fail hard.
  for (const Row& r : rows) {
    const Row& oracle = rows.front();
    if (r.refreshes != oracle.refreshes ||
        r.recomputations != oracle.recomputations ||
        r.dab_changes != oracle.dab_changes ||
        r.notifications != oracle.notifications ||
        r.solver_failures != oracle.solver_failures ||
        r.loss_pct != oracle.loss_pct) {
      std::fprintf(stderr,
                   "%s diverged from the engine-off oracle "
                   "(e.g. recomputations %lld vs %lld)\n",
                   r.config.c_str(),
                   static_cast<long long>(r.recomputations),
                   static_cast<long long>(oracle.recomputations));
      return 1;
    }
  }

  Table t({"config", "cache", "recomps", "hits", "misses",
           "wall_s", "recomps/s", "speedup"});
  const double oracle_wall = rows.front().wall_seconds;
  for (const Row& r : rows) {
    const double rps =
        r.wall_seconds > 0.0
            ? static_cast<double>(r.recomputations) / r.wall_seconds
            : 0.0;
    t.AddRow({r.config, Fmt(static_cast<int64_t>(r.solve_cache)),
              Fmt(r.recomputations), Fmt(r.cache_hits),
              Fmt(r.cache_misses), Fmt(r.wall_seconds, 3), Fmt(rps, 1),
              Fmt(r.wall_seconds > 0.0 ? oracle_wall / r.wall_seconds : 0.0,
                  2)});
  }
  std::printf("=== Solve-engine sweep (%d base PPQs x%d users, %d items, "
              "%d ticks, recompute-always) ===\n",
              base_queries, dup_factor, items, ticks);
  t.Print();
  timer.PrintSummary();

  const char* path = "BENCH_solve_engine.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double rps =
        r.wall_seconds > 0.0
            ? static_cast<double>(r.recomputations) / r.wall_seconds
            : 0.0;
    std::fprintf(
        f,
        "  {\"config\": \"%s\", \"solve_cache\": %d, "
        "\"refreshes\": %lld, \"recomputations\": %lld, "
        "\"dab_changes\": %lld, \"user_notifications\": %lld, "
        "\"solver_failures\": %lld, \"mean_fidelity_loss_pct\": %.17g, "
        "\"cache_hits\": %lld, \"cache_misses\": %lld, "
        "\"wall_seconds\": %.6f, \"recomputes_per_s\": %.1f}%s\n",
        r.config.c_str(), r.solve_cache,
        static_cast<long long>(r.refreshes),
        static_cast<long long>(r.recomputations),
        static_cast<long long>(r.dab_changes),
        static_cast<long long>(r.notifications),
        static_cast<long long>(r.solver_failures), r.loss_pct,
        static_cast<long long>(r.cache_hits),
        static_cast<long long>(r.cache_misses), r.wall_seconds, rps,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu rows)\n", path, rows.size());
  return 0;
}

}  // namespace
}  // namespace polydab::bench

int main() { return polydab::bench::Run(); }
