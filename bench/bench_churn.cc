// Service-layer churn sweep: plan-maintenance mode x registration rate,
// with admission control left wide open so every cell measures the
// maintenance path itself. Reports the engine outcome (registrations,
// deregistrations, modifies, fidelity) plus the plan-maintenance latency
// distribution — p50/p90/p99 of the per-churn-transaction wall clock from
// the svc.plan_maintenance.*_seconds histogram — so the incremental
// merge/split path can be compared against the from-scratch rebuild
// fallback at matching workloads (they are bit-identical in outcome;
// tests/churn_diff_test.cc enforces that, this measures the cost gap).
// Mirrors the table into BENCH_churn.json for mechanical diffing.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/churn_gen.h"

namespace polydab::bench {
namespace {

Status Run() {
  const int num_items = 50;
  POLYDAB_ASSIGN_OR_RETURN(
      const Universe u,
      MakeUniverse(workload::TraceKind::kGbmStock, 9002, num_items,
                   ByScale(2000, 2000, 10000)));
  workload::QueryGenConfig qc;
  qc.num_items = num_items;
  Rng qrng(49);
  const int nq = ByScale(20, 20, 100);
  POLYDAB_ASSIGN_OR_RETURN(
      const std::vector<PolynomialQuery> queries,
      workload::GeneratePortfolioQueries(nq, qc, u.initial, &qrng));

  const std::vector<double> churn_rates = ByScale<std::vector<double>>(
      {0.05, 0.2, 0.5}, {0.05, 0.2, 0.5}, {0.05, 0.2, 0.5, 1.0});
  Table t({"maintenance", "rate", "regs", "deregs", "mods", "recomps",
           "loss%", "maint_n", "p50_us", "p90_us", "p99_us", "wall_s"});
  std::vector<BenchRow> json;
  HarnessTimer timer;

  for (sim::PlanMaintenance maintenance :
       {sim::PlanMaintenance::kIncremental, sim::PlanMaintenance::kRebuild}) {
    for (double rate : churn_rates) {
      workload::ChurnConfig cc;
      cc.arrival_rate = rate;
      cc.mean_lifetime_s = 300.0;
      cc.modify_prob = 0.2;
      cc.horizon_s = static_cast<double>(u.traces.num_ticks);
      cc.num_items = num_items;
      Rng crng(7);
      POLYDAB_ASSIGN_OR_RETURN(
          std::vector<workload::ChurnOp> schedule,
          workload::GenerateChurnSchedule(cc, u.initial, &crng));

      obs::MetricRegistry reg;
      svc::QueryService service(svc::AdmissionConfig{}, std::move(schedule),
                                &reg, maintenance);
      sim::SimConfig c;
      c.planner.method = core::AssignmentMethod::kDualDab;
      c.planner.dual.mu = core::kDefaultMu;
      c.seed = 99;
      c.registry = &reg;
      c.service = &service;
      c.plan_maintenance = maintenance;
      obs::ScopedTimer timed = timer.Section(
          std::string("bench.run.") + Name(maintenance) + "." + Fmt(rate, 2));
      POLYDAB_ASSIGN_OR_RETURN(
          const sim::SimMetrics m,
          sim::RunSimulation(queries, u.traces, u.rates, c));
      const double wall_seconds = timed.Stop();
      const obs::Histogram* h = reg.GetHistogram(
          maintenance == sim::PlanMaintenance::kIncremental
              ? "svc.plan_maintenance.incremental_seconds"
              : "svc.plan_maintenance.rebuild_seconds");
      t.AddRow({Name(maintenance), Fmt(rate, 2),
                Fmt(service.registrations()), Fmt(service.deregistrations()),
                Fmt(service.modifications()), Fmt(m.recomputations),
                Fmt(m.mean_fidelity_loss_pct, 3), Fmt(h->count()),
                Fmt(h->Quantile(0.5) * 1e6, 1), Fmt(h->Quantile(0.9) * 1e6, 1),
                Fmt(h->Quantile(0.99) * 1e6, 1), Fmt(wall_seconds, 3)});
      json.push_back(
          BenchRow()
              .Str("maintenance", Name(maintenance))
              .Num("churn_rate", rate)
              .Num("registrations", service.registrations())
              .Num("deregistrations", service.deregistrations())
              .Num("modifications", service.modifications())
              .Num("recomputations", m.recomputations)
              .Num("mean_fidelity_loss_pct", m.mean_fidelity_loss_pct)
              .Num("plan_maintenance_count", h->count())
              .Num("plan_maintenance_p50_s", h->Quantile(0.5))
              .Num("plan_maintenance_p90_s", h->Quantile(0.9))
              .Num("plan_maintenance_p99_s", h->Quantile(0.99))
              .Num("wall_seconds", wall_seconds));
    }
  }

  std::printf("=== Service churn sweep (%d base PPQs, %d items) ===\n", nq,
              num_items);
  t.Print();
  timer.PrintSummary();
  return WriteBenchJson("BENCH_churn.json", json);
}

}  // namespace
}  // namespace polydab::bench

int main() {
  return polydab::bench::ExitCode("bench_churn", polydab::bench::Run());
}
