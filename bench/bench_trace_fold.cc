// Folding overhead (obs/trace_fold.h) on a large captured trace: how long
// the flamegraph folder takes per event, for each grouping, against the
// replay-derivation baseline it conserves with (DeriveTotalStats) and the
// folded/JSON renderings. The per-event number bounds what `polydab_flame`
// and `polydab_experiment flame-out=` add on top of a traced run.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "obs/trace_fold.h"
#include "sim/simulation.h"

namespace polydab::bench {
namespace {

/// One large traced run: a 4-lane sharded dual-DAB run with a periodic
/// joint AAO solve, so every frame class — lanes, barriers, AAO chains —
/// appears in the folded output. Generated once and shared by every
/// benchmark (the generating simulation dwarfs the folding under
/// measurement).
const obs::TraceFile& LargeTrace() {
  static const obs::TraceFile trace = [] {
    Universe u = *MakeUniverse(workload::TraceKind::kGbmStock, 5001,
                              /*num_items=*/60, /*num_ticks=*/500);
    workload::QueryGenConfig qc;
    qc.num_items = 60;
    Rng qrng(42);
    auto queries =
        *workload::GeneratePortfolioQueries(25, qc, u.initial, &qrng);
    sim::SimConfig config;
    config.planner.method = core::AssignmentMethod::kDualDab;
    config.planner.dual.mu = core::kDefaultMu;
    config.seed = 99;
    config.coord_shards = 4;
    config.shard_policy = sim::ShardPolicy::kQueryHash;
    config.aao_period_s = 120.0;
    obs::TraceSink sink;
    config.trace = &sink;
    (void)sim::RunSimulation(queries, u.traces, u.rates, config);
    return sink.Collect();
  }();
  return trace;
}

void BM_FoldTrace(benchmark::State& state) {
  const obs::TraceFile& trace = LargeTrace();
  const auto group_by = static_cast<obs::FoldGroupBy>(state.range(0));
  obs::TraceFoldOptions options;
  options.group_by = group_by;
  size_t stacks = 0;
  for (auto _ : state) {
    auto report = obs::FoldTrace(trace, options);
    if (!report.ok() || !report->ok()) {
      state.SkipWithError("fold failed");
      break;
    }
    stacks = report->stacks.size();
    benchmark::DoNotOptimize(report);
  }
  state.counters["events"] = static_cast<double>(trace.events.size());
  state.counters["stacks"] = static_cast<double>(stacks);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.events.size()));
}
BENCHMARK(BM_FoldTrace)
    ->Arg(static_cast<int>(obs::FoldGroupBy::kQuery))
    ->Arg(static_cast<int>(obs::FoldGroupBy::kItem))
    ->Arg(static_cast<int>(obs::FoldGroupBy::kLane))
    ->Unit(benchmark::kMillisecond);

void BM_DeriveTotalStats(benchmark::State& state) {
  // The conservation baseline alone: one pass of the shared kind ->
  // SimMetrics-field accumulation.
  const obs::TraceFile& trace = LargeTrace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::DeriveTotalStats(trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.events.size()));
}
BENCHMARK(BM_DeriveTotalStats)->Unit(benchmark::kMillisecond);

void BM_RenderFolded(benchmark::State& state) {
  const obs::TraceFile& trace = LargeTrace();
  const auto report = *obs::FoldTrace(trace);
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = report.ToFolded();
    bytes = text.size();
    benchmark::DoNotOptimize(text);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RenderFolded)->Unit(benchmark::kMillisecond);

void BM_RenderJson(benchmark::State& state) {
  const obs::TraceFile& trace = LargeTrace();
  const auto report = *obs::FoldTrace(trace);
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = report.ToJson();
    bytes = text.size();
    benchmark::DoNotOptimize(text);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RenderJson)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace polydab::bench

BENCHMARK_MAIN();
