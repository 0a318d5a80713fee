// Real-thread lane runtime sweep (src/rt/, docs/CONCURRENCY.md): wall
// clock vs SimConfig::threads on a recomputation-heavy workload whose
// per-part GP solves are the dominant CPU cost, with coord-shards=8
// hash lanes so the solves spread across the worker pool. Every
// deterministic counter must be identical across the whole thread sweep
// (the runtime's core contract — the bench hard-fails otherwise), so the
// only column allowed to move is wall_seconds. Mirrors the table into
// BENCH_threaded_coord.json; the ctest gate (bench_threaded_gate)
// re-runs the quick scale and diffs it against the committed baseline
// with bench_compare, which tolerates only the wall-clock fields.
//
// Scales: POLYDAB_BENCH_QUICK=1 is the seconds-long ctest scale,
// REPRO_FULL=1 the paper scale, default in between.
//
// On a single-core host the speedup column is flat-to-negative — the
// pool can only add dispatch overhead there. The counter-identity
// assertion and the JSON gate bind regardless of core count; read the
// speedup column on a machine with cores to spare.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/simulation.h"

namespace polydab::bench {
namespace {

Status Run() {
  const int items = ByScale(30, 100, 100);
  const int ticks = ByScale(300, 2000, 10000);
  const int nq = ByScale(20, 100, 200);
  POLYDAB_ASSIGN_OR_RETURN(
      const Universe u,
      MakeUniverse(workload::TraceKind::kGbmStock, 9001, items, ticks));
  workload::QueryGenConfig qc;
  qc.num_items = items;
  Rng qrng(48);
  POLYDAB_ASSIGN_OR_RETURN(
      const std::vector<PolynomialQuery> queries,
      workload::GeneratePortfolioQueries(nq, qc, u.initial, &qrng));

  Table t({"threads", "refreshes", "recomps", "dab_changes", "notifs",
           "loss%", "wall_s", "speedup"});
  std::vector<BenchRow> json;
  HarnessTimer timer;
  sim::SimMetrics oracle;
  double serial_wall = 0.0;
  for (int threads : {0, 1, 2, 4, 8}) {
    sim::SimConfig c;
    // Recompute on every refresh: maximizes the solve volume the pool
    // can overlap.
    c.planner.method = core::AssignmentMethod::kOptimalRefresh;
    c.planner.dual.mu = 1.0;
    c.coord_shards = 8;
    c.shard_policy = sim::ShardPolicy::kQueryHash;
    c.threads = threads;
    c.seed = 99;
    obs::ScopedTimer timed =
        timer.Section("bench.run.threads." + std::to_string(threads));
    POLYDAB_ASSIGN_OR_RETURN(const sim::SimMetrics m,
                             sim::RunSimulation(queries, u.traces, u.rates, c));
    const double wall_seconds = timed.Stop();
    if (threads == 0) {
      oracle = m;
      serial_wall = wall_seconds;
    }
    // The runtime's contract: the thread count is invisible to every
    // protocol-level outcome.
    POLYDAB_RETURN_NOT_OK(
        SameCounters("threads=" + std::to_string(threads), oracle, m));
    t.AddRow({Fmt(static_cast<int64_t>(threads)), Fmt(m.refreshes),
              Fmt(m.recomputations), Fmt(m.dab_change_messages),
              Fmt(m.user_notifications), Fmt(m.mean_fidelity_loss_pct, 3),
              Fmt(wall_seconds, 3),
              Fmt(wall_seconds > 0.0 ? serial_wall / wall_seconds : 0.0, 2)});
    json.push_back(BenchRow()
                       .Num("threads", threads)
                       .Num("refreshes", m.refreshes)
                       .Num("recomputations", m.recomputations)
                       .Num("dab_changes", m.dab_change_messages)
                       .Num("user_notifications", m.user_notifications)
                       .Num("solver_failures", m.solver_failures)
                       .Num("mean_fidelity_loss_pct", m.mean_fidelity_loss_pct)
                       .Num("wall_seconds", wall_seconds));
  }
  std::printf("=== Real-thread lane runtime sweep (%d PPQs, %d items, "
              "%d ticks, 8 hash lanes) ===\n",
              nq, items, ticks);
  t.Print();
  timer.PrintSummary();
  return WriteBenchJson("BENCH_threaded_coord.json", json);
}

}  // namespace
}  // namespace polydab::bench

int main() {
  return polydab::bench::ExitCode("bench_threaded_coord",
                                  polydab::bench::Run());
}
