// Sharded-coordinator sweep: coord_shards x partition policy, under a
// recomputation-heavy load where the coordinator queue actually matters.
// Reports simulated fidelity/queueing (queue-wait and cross-lane dispatch
// means from the obs instruments, barrier counts) plus harness wall-clock
// per cell, and mirrors the table into BENCH_coord_shards.json so CI can
// diff runs mechanically.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/simulation.h"

namespace polydab::bench {
namespace {

Status Run() {
  POLYDAB_ASSIGN_OR_RETURN(
      const Universe u,
      MakeUniverse(workload::TraceKind::kGbmStock, 9001, 100,
                   ByScale(2000, 2000, 10000)));
  workload::QueryGenConfig qc;
  Rng qrng(48);
  const int nq = ByScale(50, 50, 200);
  POLYDAB_ASSIGN_OR_RETURN(
      const std::vector<PolynomialQuery> queries,
      workload::GeneratePortfolioQueries(nq, qc, u.initial, &qrng));

  const std::vector<int> shard_counts = {1, 2, 4, 8};
  Table t({"method", "policy", "shards", "refreshes", "recomps", "barriers",
           "loss%", "queue_wait_ms", "dispatch_ms", "wall_s"});
  std::vector<BenchRow> json;
  HarnessTimer timer;

  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab,
        core::AssignmentMethod::kOptimalRefresh}) {
    for (sim::ShardPolicy policy :
         {sim::ShardPolicy::kEqiComponents, sim::ShardPolicy::kQueryHash}) {
      for (int shards : shard_counts) {
        sim::SimConfig c;
        c.planner.method = method;
        c.planner.dual.mu = core::kDefaultMu;
        // 20 ms per recomputation saturates the serial coordinator on
        // this workload; the sweep shows how lanes drain the queue.
        c.delays.recompute_cpu_s = 0.020;
        c.coord_shards = shards;
        c.shard_policy = policy;
        c.seed = 99;
        obs::MetricRegistry reg;
        c.registry = &reg;
        obs::ScopedTimer timed = timer.Section(
            std::string("bench.run.") + core::Name(method) + "." +
            Name(policy) + "." + std::to_string(shards));
        POLYDAB_ASSIGN_OR_RETURN(
            const sim::SimMetrics m,
            sim::RunSimulation(queries, u.traces, u.rates, c));
        const double wall_seconds = timed.Stop();
        const obs::Histogram* qw =
            reg.GetHistogram("sim.coordinator.queue_wait_seconds");
        const obs::Histogram* dw =
            reg.GetHistogram("sim.coordinator.shard_dispatch_wait_seconds");
        const int64_t barriers =
            reg.GetCounter("sim.coordinator.shard_barriers")->value();
        const double queue_wait_s = qw->count() > 0 ? qw->mean() : 0.0;
        const double dispatch_wait_s = dw->count() > 0 ? dw->mean() : 0.0;
        t.AddRow({core::Name(method), Name(policy),
                  Fmt(static_cast<int64_t>(shards)), Fmt(m.refreshes),
                  Fmt(m.recomputations), Fmt(barriers),
                  Fmt(m.mean_fidelity_loss_pct, 3),
                  Fmt(queue_wait_s * 1000.0, 3),
                  Fmt(dispatch_wait_s * 1000.0, 3), Fmt(wall_seconds, 3)});
        json.push_back(
            BenchRow()
                .Str("method", core::Name(method))
                .Str("policy", Name(policy))
                .Num("shards", shards)
                .Num("refreshes", m.refreshes)
                .Num("recomputations", m.recomputations)
                .Num("shard_barriers", barriers)
                .Num("mean_fidelity_loss_pct", m.mean_fidelity_loss_pct)
                .Num("queue_wait_mean_s", queue_wait_s)
                .Num("dispatch_wait_mean_s", dispatch_wait_s)
                .Num("wall_seconds", wall_seconds));
      }
    }
  }

  std::printf("=== Sharded coordinator sweep (%d PPQs, recompute 20 ms) "
              "===\n",
              nq);
  t.Print();
  timer.PrintSummary();
  return WriteBenchJson("BENCH_coord_shards.json", json);
}

}  // namespace
}  // namespace polydab::bench

int main() {
  return polydab::bench::ExitCode("bench_coord_shards", polydab::bench::Run());
}
