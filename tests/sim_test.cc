#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <functional>
#include <limits>

#include "obs/timeseries.h"
#include "obs/trace.h"
#include "recovery/recovery.h"
#include "sim/simulation.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::sim {
namespace {

/// Small but non-trivial shared fixture: 20 GBM items, ~600 s of trace,
/// a handful of portfolio queries.
class SimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1234);
    workload::TraceSetConfig tc;
    tc.num_items = 20;
    tc.num_ticks = 600;
    tc.vol_lo = 5e-4;
    tc.vol_hi = 2e-3;
    traces_ = *workload::GenerateTraceSet(tc, &rng);
    rates_ = *workload::EstimateRates(traces_, 60);

    workload::QueryGenConfig qc;
    qc.num_items = 20;
    qc.min_pairs = 2;
    qc.max_pairs = 3;
    queries_ = *workload::GeneratePortfolioQueries(8, qc,
                                                   traces_.Snapshot(0), &rng);
  }

  SimConfig Config(core::AssignmentMethod method, double mu) {
    SimConfig c;
    c.planner.method = method;
    c.planner.dual.mu = mu;
    c.seed = 7;
    return c;
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

TEST_F(SimTest, ZeroDelayDualDabKeepsFidelity) {
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0);
  c.delays.zero_delay = true;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  // Condition 1 guarantees QABs exactly in a zero-delay network (§I-B).
  EXPECT_NEAR(m->mean_fidelity_loss_pct, 0.0, 1e-9);
  EXPECT_GT(m->refreshes, 0);
  EXPECT_EQ(m->solver_failures, 0);
}

TEST_F(SimTest, ZeroDelayOptimalRefreshKeepsFidelity) {
  SimConfig c = Config(core::AssignmentMethod::kOptimalRefresh, 1.0);
  c.delays.zero_delay = true;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_NEAR(m->mean_fidelity_loss_pct, 0.0, 1e-9);
}

TEST_F(SimTest, DualDabSlashesRecomputations) {
  // The paper's headline (Figure 5(a)): Dual-DAB cuts recomputations by
  // around an order of magnitude versus Optimal Refresh.
  auto opt = RunSimulation(queries_, traces_, rates_,
                           Config(core::AssignmentMethod::kOptimalRefresh, 1.0));
  auto dual = RunSimulation(queries_, traces_, rates_,
                            Config(core::AssignmentMethod::kDualDab, 5.0));
  ASSERT_TRUE(opt.ok());
  ASSERT_TRUE(dual.ok());
  EXPECT_GT(opt->recomputations, 0);
  EXPECT_LT(dual->recomputations, opt->recomputations / 2);
}

TEST_F(SimTest, DualDabCostsOnlySlightlyMoreRefreshes) {
  auto opt = RunSimulation(queries_, traces_, rates_,
                           Config(core::AssignmentMethod::kOptimalRefresh, 1.0));
  auto dual = RunSimulation(queries_, traces_, rates_,
                            Config(core::AssignmentMethod::kDualDab, 5.0));
  ASSERT_TRUE(opt.ok());
  ASSERT_TRUE(dual.ok());
  // Tighter primaries cause more refreshes, but bounded (paper: "small
  // increase", Figure 5(b)): allow up to 4x on this tiny workload.
  EXPECT_GE(dual->refreshes, opt->refreshes);
  EXPECT_LT(dual->refreshes, 4 * opt->refreshes);
}

TEST_F(SimTest, LargerMuFewerRecomputations) {
  auto lo = RunSimulation(queries_, traces_, rates_,
                          Config(core::AssignmentMethod::kDualDab, 1.0));
  auto hi = RunSimulation(queries_, traces_, rates_,
                          Config(core::AssignmentMethod::kDualDab, 10.0));
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  EXPECT_LE(hi->recomputations, lo->recomputations);
  EXPECT_GE(hi->refreshes, lo->refreshes);
}

TEST_F(SimTest, WsDabBaselineNeedsMoreMessages) {
  auto base = RunSimulation(queries_, traces_, rates_,
                            Config(core::AssignmentMethod::kWsDab, 1.0));
  auto opt = RunSimulation(queries_, traces_, rates_,
                           Config(core::AssignmentMethod::kOptimalRefresh, 1.0));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(opt.ok());
  EXPECT_GT(base->refreshes, opt->refreshes);
}

TEST_F(SimTest, DeterministicGivenSeed) {
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0);
  auto a = RunSimulation(queries_, traces_, rates_, c);
  auto b = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->refreshes, b->refreshes);
  EXPECT_EQ(a->recomputations, b->recomputations);
  EXPECT_EQ(a->dab_change_messages, b->dab_change_messages);
  EXPECT_DOUBLE_EQ(a->mean_fidelity_loss_pct, b->mean_fidelity_loss_pct);
}

TEST_F(SimTest, DabChangesAccompanyRecomputations) {
  auto m = RunSimulation(queries_, traces_, rates_,
                         Config(core::AssignmentMethod::kDualDab, 5.0));
  ASSERT_TRUE(m.ok());
  if (m->recomputations > 0) {
    EXPECT_GT(m->dab_change_messages, 0);
  }
}

TEST_F(SimTest, TotalCostMetric) {
  SimMetrics m;
  m.refreshes = 100;
  m.recomputations = 10;
  EXPECT_DOUBLE_EQ(m.TotalCost(5.0), 150.0);
}

TEST_F(SimTest, AaoPeriodicModeRuns) {
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0);
  c.aao_period_s = 120.0;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  // Every period recomputes each query: at least floor(599/120)*8 events.
  EXPECT_GE(m->recomputations, 4 * static_cast<int64_t>(queries_.size()));
}

TEST_F(SimTest, AaoModeRejectsGeneralQueries) {
  VariableRegistry reg;
  auto p = Polynomial::Parse("a*b - c*d", &reg);
  ASSERT_TRUE(p.ok());
  std::vector<PolynomialQuery> qs = {{0, *p, 1.0}};
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0);
  c.aao_period_s = 60.0;
  EXPECT_FALSE(RunSimulation(qs, traces_, rates_, c).ok());
}

TEST_F(SimTest, RejectsBadInputs) {
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0);
  EXPECT_FALSE(RunSimulation({}, traces_, rates_, c).ok());
  EXPECT_FALSE(
      RunSimulation(queries_, traces_, Vector(3, 1.0), c).ok());
  workload::TraceSet tiny;
  tiny.num_ticks = 1;
  tiny.traces.assign(20, Vector(1, 1.0));
  EXPECT_FALSE(RunSimulation(queries_, tiny, rates_, c).ok());
}

TEST_F(SimTest, RegistryCountersMatchSimMetricsExactly) {
  // The obs counters are incremented at the same code sites as the
  // SimMetrics fields, so a run with a registry attached must report
  // identical values through both channels.
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0);
  obs::MetricRegistry registry;
  c.registry = &registry;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(registry.GetCounter("sim.coordinator.refreshes")->value(),
            m->refreshes);
  EXPECT_EQ(registry.GetCounter("sim.coordinator.recomputations")->value(),
            m->recomputations);
  EXPECT_EQ(registry.GetCounter("sim.coordinator.dab_change_messages")->value(),
            m->dab_change_messages);
  EXPECT_EQ(registry.GetCounter("sim.coordinator.user_notifications")->value(),
            m->user_notifications);
  EXPECT_EQ(registry.GetCounter("sim.coordinator.solver_failures")->value(),
            m->solver_failures);
  EXPECT_DOUBLE_EQ(registry.GetGauge("sim.fidelity.mean_loss_pct")->value(),
                   m->mean_fidelity_loss_pct);
  // The registry propagates down to the planner and the GP solver.
  EXPECT_GT(registry.GetCounter("core.planner.plans")->value(), 0);
  EXPECT_GT(registry.GetCounter("gp.solver.solves")->value(), 0);
  EXPECT_GT(registry.GetHistogram("gp.solver.solve_seconds")->count(), 0);
  // Solver-counter exactness (docs/SOLVER.md): every solve of a
  // constrained program either trusted its warm point or went through
  // phase I — never both, never neither. A cold restart resets the
  // per-attempt stats, so a warm descent that failed and re-ran through
  // phase I reports as exactly one phase-I solve; double counting here
  // was the historical over-report bug.
  const int64_t solves = registry.GetCounter("gp.solver.solves")->value();
  EXPECT_EQ(registry.GetCounter("gp.solver.warm_start_feasible")->value() +
                registry.GetCounter("gp.solver.phase1_solves")->value(),
            solves);
  EXPECT_EQ(registry.GetCounter("gp.solver.converged")->value() +
                registry.GetCounter("gp.solver.failures")->value(),
            solves);
  EXPECT_EQ(registry.GetHistogram("gp.solver.newton_iterations")->count(),
            solves);
  EXPECT_EQ(registry.GetHistogram("gp.solver.solve_seconds")->count(),
            solves);
}

TEST_F(SimTest, RegistryDoesNotPerturbResults) {
  SimConfig plain = Config(core::AssignmentMethod::kDualDab, 5.0);
  SimConfig instrumented = plain;
  obs::MetricRegistry registry;
  instrumented.registry = &registry;
  auto a = RunSimulation(queries_, traces_, rates_, plain);
  auto b = RunSimulation(queries_, traces_, rates_, instrumented);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->refreshes, b->refreshes);
  EXPECT_EQ(a->recomputations, b->recomputations);
  EXPECT_DOUBLE_EQ(a->mean_fidelity_loss_pct, b->mean_fidelity_loss_pct);
}

TEST_F(SimTest, DescribeMentionsKeyKnobs) {
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0);
  const std::string d = c.Describe();
  EXPECT_NE(d.find("method=dual"), std::string::npos) << d;
  EXPECT_NE(d.find("mu=5"), std::string::npos) << d;
  EXPECT_NE(d.find("seed=7"), std::string::npos) << d;
}

TEST_F(SimTest, GeneralQueriesRunThroughHeuristics) {
  Rng rng(5);
  workload::QueryGenConfig qc;
  qc.num_items = 20;
  qc.min_pairs = 2;
  qc.max_pairs = 2;
  auto arb = workload::GenerateArbitrageQueries(4, qc, traces_.Snapshot(0),
                                                false, &rng);
  ASSERT_TRUE(arb.ok());
  for (core::GeneralPqHeuristic h : {core::GeneralPqHeuristic::kHalfAndHalf,
                                     core::GeneralPqHeuristic::kDifferentSum}) {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0);
    c.planner.heuristic = h;
    c.delays.zero_delay = true;
    auto m = RunSimulation(*arb, traces_, rates_, c);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_NEAR(m->mean_fidelity_loss_pct, 0.0, 1e-9);
  }
}

/// A churn driver that never issues an op.
class IdleService final : public ServiceHooks {
 public:
  Status OnTick(int, double, ServiceOps&) override { return Status::OK(); }
};

TEST(SimConfigValidateTest, EveryRuleAcceptsAndRejects) {
  // One accepted and one rejected config per rule, checked without a run.
  obs::TraceSink sink;
  obs::SeriesRecorder recorder{obs::SeriesConfig{}};
  obs::SeriesConfig replay_config;
  replay_config.derive_samples = true;
  obs::SeriesRecorder replay_recorder(replay_config);
  obs::SeriesRecorder finalized_recorder{obs::SeriesConfig{}};
  finalized_recorder.Finalize(0.0);
  IdleService service;
  recovery::RecoveryConfig rc;
  rc.checkpoint_path = "unused.ckpt";
  recovery::RecoveryConfig bad_rc;
  bad_rc.interval_s = 0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* rule;
    std::function<void(SimConfig&)> accepted;
    std::function<void(SimConfig&)> rejected;
  };
  const Case cases[] = {
      {"coord_shards >= 1", [](SimConfig& c) { c.coord_shards = 4; },
       [](SimConfig& c) { c.coord_shards = 0; }},
      {"threads >= 0", [](SimConfig& c) { c.threads = 2; },
       [](SimConfig& c) { c.threads = -1; }},
      {"rt_fail_at >= 0",
       [](SimConfig& c) { c.threads = 2; c.rt_fail_at = 3; },
       [](SimConfig& c) { c.threads = 2; c.rt_fail_at = -1; }},
      {"rt_fail_at needs threads",
       [](SimConfig& c) { c.threads = 1; c.rt_fail_at = 1; },
       [](SimConfig& c) { c.rt_fail_at = 3; }},
      {"solve_cache >= 0", [](SimConfig& c) { c.solve_cache = 64; },
       [](SimConfig& c) { c.solve_cache = -1; }},
      {"fidelity_stride >= 1", [](SimConfig& c) { c.fidelity_stride = 5; },
       [](SimConfig& c) { c.fidelity_stride = 0; }},
      {"fidelity_stride not negative",
       [](SimConfig& c) { c.fidelity_stride = 1; },
       [](SimConfig& c) { c.fidelity_stride = -3; }},
      {"aao_period_s not negative", [](SimConfig& c) { c.aao_period_s = 60; },
       [](SimConfig& c) { c.aao_period_s = -5; }},
      {"aao_period_s not NaN", [](SimConfig& c) { c.aao_period_s = 0.5; },
       [nan](SimConfig& c) { c.aao_period_s = nan; }},
      {"aao_period_s finite", [](SimConfig& c) { c.aao_period_s = INT_MAX; },
       [inf](SimConfig& c) { c.aao_period_s = inf; }},
      {"aao_period_s <= INT_MAX", [](SimConfig& c) { c.aao_period_s = 0; },
       [](SimConfig& c) { c.aao_period_s = 1e12; }},
      {"delay config", [](SimConfig& c) { c.delays.zero_delay = true; },
       [](SimConfig& c) { c.delays.node_node_mean = -1.0; }},
      {"fault config", [](SimConfig& c) { c.fault.drop_prob = 0.2; },
       [](SimConfig& c) { c.fault.drop_prob = 1.5; }},
      {"churn x AAO", [&](SimConfig& c) { c.service = &service; },
       [&](SimConfig& c) { c.service = &service; c.aao_period_s = 60; }},
      {"churn x fault injection",
       [&](SimConfig& c) { c.service = &service; },
       [&](SimConfig& c) { c.service = &service; c.fault.drop_prob = 0.1; }},
      {"series needs a trace sink",
       [&](SimConfig& c) { c.series = &recorder; c.trace = &sink; },
       [&](SimConfig& c) { c.series = &recorder; }},
      {"series on the sharded coordinator, not an overlay node",
       [&](SimConfig& c) {
         c.series = &recorder; c.trace = &sink; c.coord_shards = 4;
       },
       [&](SimConfig& c) {
         c.series = &recorder; c.trace = &sink; c.trace_node = 3;
       }},
      {"series recorder in engine mode",
       [&](SimConfig& c) { c.series = &recorder; c.trace = &sink; },
       [&](SimConfig& c) { c.series = &replay_recorder; c.trace = &sink; }},
      {"series recorder not finalized",
       [&](SimConfig& c) { c.series = &recorder; c.trace = &sink; },
       [&](SimConfig& c) {
         c.series = &finalized_recorder; c.trace = &sink;
       }},
      {"recovery config", [&](SimConfig& c) { c.recovery = &rc; },
       [&](SimConfig& c) { c.recovery = &bad_rc; }},
      {"recovery x series", [&](SimConfig& c) { c.recovery = &rc; },
       [&](SimConfig& c) {
         c.recovery = &rc; c.series = &recorder; c.trace = &sink;
       }},
      {"recovery x AAO", [&](SimConfig& c) { c.recovery = &rc; },
       [&](SimConfig& c) { c.recovery = &rc; c.aao_period_s = 60; }},
      {"recovery x rt_fail_at",
       [&](SimConfig& c) { c.recovery = &rc; c.threads = 2; },
       [&](SimConfig& c) {
         c.recovery = &rc; c.threads = 2; c.rt_fail_at = 3;
       }},
  };
  EXPECT_TRUE(SimConfig().Validate().ok());
  for (const Case& rule : cases) {
    SimConfig ok_config, bad_config;
    rule.accepted(ok_config);
    rule.rejected(bad_config);
    EXPECT_TRUE(ok_config.Validate().ok())
        << rule.rule << ": " << ok_config.Validate().ToString();
    EXPECT_FALSE(bad_config.Validate().ok()) << rule.rule;
  }
}

TEST_F(SimTest, FidelityStrideBelowOneIsRejectedNotRun) {
  // Stride 0 used to divide by zero (SIGFPE) and -3 returned a negative
  // fidelity loss.
  for (int stride : {0, -3}) {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0);
    c.fidelity_stride = stride;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument)
        << "stride=" << stride;
  }
}

}  // namespace
}  // namespace polydab::sim
