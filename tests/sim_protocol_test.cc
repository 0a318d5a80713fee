// Protocol-level invariants of the simulator beyond the headline metrics
// covered in sim_test.cc: delay semantics, queueing, part-level plans,
// and failure behaviour.

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "obs/trace_check.h"
#include "sim/simulation.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::sim {
namespace {

class SimProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(555);
    workload::TraceSetConfig tc;
    tc.num_items = 12;
    tc.num_ticks = 500;
    traces_ = *workload::GenerateTraceSet(tc, &rng);
    rates_ = *workload::EstimateRates(traces_, 60);
    workload::QueryGenConfig qc;
    qc.num_items = 12;
    qc.min_pairs = 2;
    qc.max_pairs = 2;
    queries_ = *workload::GeneratePortfolioQueries(6, qc,
                                                   traces_.Snapshot(0), &rng);
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

TEST_F(SimProtocolTest, ZeroDelayNeverLosesFidelityAcrossSchemes) {
  for (auto method : {core::AssignmentMethod::kOptimalRefresh,
                      core::AssignmentMethod::kDualDab,
                      core::AssignmentMethod::kWsDab}) {
    SimConfig c;
    c.planner.method = method;
    c.planner.dual.mu = 5.0;
    c.delays.zero_delay = true;
    c.seed = 3;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    ASSERT_TRUE(m.ok());
    EXPECT_NEAR(m->mean_fidelity_loss_pct, 0.0, 1e-9)
        << "method " << static_cast<int>(method);
  }
}

TEST_F(SimProtocolTest, LongerDelaysNeverImproveFidelity) {
  double prev_loss = -1.0;
  for (double delay : {0.05, 0.5, 2.0}) {
    SimConfig c;
    c.planner.method = core::AssignmentMethod::kDualDab;
    c.planner.dual.mu = 5.0;
    c.delays.node_node_mean = delay;
    c.seed = 3;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    ASSERT_TRUE(m.ok());
    EXPECT_GE(m->mean_fidelity_loss_pct + 1e-9, prev_loss * 0.5)
        << "loss should not collapse as delays grow";
    prev_loss = m->mean_fidelity_loss_pct;
  }
}

TEST_F(SimProtocolTest, RecomputeCpuCausesQueueingLoss) {
  // With an absurd per-recompute CPU cost the coordinator saturates and
  // fidelity collapses; with zero CPU cost it stays healthy. This pins
  // the coordinator-as-serial-resource model.
  SimConfig fast;
  fast.planner.method = core::AssignmentMethod::kOptimalRefresh;
  fast.delays.recompute_cpu_s = 0.0;
  fast.seed = 3;
  SimConfig slow = fast;
  slow.delays.recompute_cpu_s = 0.5;
  auto mf = RunSimulation(queries_, traces_, rates_, fast);
  auto ms = RunSimulation(queries_, traces_, rates_, slow);
  ASSERT_TRUE(mf.ok());
  ASSERT_TRUE(ms.ok());
  EXPECT_GT(ms->mean_fidelity_loss_pct,
            mf->mean_fidelity_loss_pct + 1.0);
}

TEST_F(SimProtocolTest, FidelityStrideCoarsensMeasurementOnly) {
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 5.0;
  c.seed = 3;
  auto fine = RunSimulation(queries_, traces_, rates_, c);
  c.fidelity_stride = 5;
  auto coarse = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(coarse.ok());
  // Protocol behaviour (message counts) is identical; only the fidelity
  // estimate changes resolution.
  EXPECT_EQ(fine->refreshes, coarse->refreshes);
  EXPECT_EQ(fine->recomputations, coarse->recomputations);
}

TEST_F(SimProtocolTest, HalfAndHalfMaintainsTwoPartsIndependently) {
  // A general query under HH recomputes its two halves separately; under
  // DS there is a single part. With everything else equal, HH's
  // DAB-change traffic references both halves' item sets.
  Rng rng(6);
  workload::QueryGenConfig qc;
  qc.num_items = 12;
  qc.min_pairs = 2;
  qc.max_pairs = 2;
  auto arb = *workload::GenerateArbitrageQueries(3, qc, traces_.Snapshot(0),
                                                 false, &rng);
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 2.0;
  c.seed = 3;
  c.planner.heuristic = core::GeneralPqHeuristic::kHalfAndHalf;
  auto hh = RunSimulation(arb, traces_, rates_, c);
  c.planner.heuristic = core::GeneralPqHeuristic::kDifferentSum;
  auto ds = RunSimulation(arb, traces_, rates_, c);
  ASSERT_TRUE(hh.ok());
  ASSERT_TRUE(ds.ok());
  EXPECT_GT(hh->refreshes, 0);
  EXPECT_GT(ds->refreshes, 0);
}

TEST_F(SimProtocolTest, UnusedItemsNeverPush) {
  // Query only over items 0..3; items 4..11 must generate no traffic.
  VariableRegistry reg;
  for (int i = 0; i < 12; ++i) reg.Intern("i" + std::to_string(i));
  auto p = Polynomial::Parse("i0*i1 + i2*i3", &reg);
  ASSERT_TRUE(p.ok());
  PolynomialQuery q{0, *p, 0.0};
  q.qab = 0.01 * p->Evaluate(traces_.Snapshot(0));
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.seed = 3;
  auto narrow = RunSimulation({q}, traces_, rates_, c);
  ASSERT_TRUE(narrow.ok());
  // An a-priori bound: 4 items over 499 ticks can push at most once per
  // item per tick.
  EXPECT_LE(narrow->refreshes, 4 * 499);
}

TEST_F(SimProtocolTest, AaoPeriodicUsesWarmStartsAndStaysValid) {
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 5.0;
  c.aao_period_s = 50.0;
  c.delays.zero_delay = true;
  c.seed = 3;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_NEAR(m->mean_fidelity_loss_pct, 0.0, 1e-9);
  EXPECT_EQ(m->solver_failures, 0);
  // 9 periods x 6 queries of joint recomputation at minimum.
  EXPECT_GE(m->recomputations, 9 * 6);
}

TEST_F(SimProtocolTest, MetricsScaleWithTraceLength) {
  workload::TraceSet half = traces_;
  half.num_ticks = 250;
  for (auto& tr : half.traces) tr.resize(250);
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 5.0;
  c.seed = 3;
  auto full = RunSimulation(queries_, traces_, rates_, c);
  auto short_run = RunSimulation(queries_, half, rates_, c);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(short_run.ok());
  EXPECT_GT(full->refreshes, short_run->refreshes);
}


TEST_F(SimProtocolTest, ParanoidValidationPassesCleanRun) {
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 5.0;
  c.paranoid_validation = true;
  c.seed = 3;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
}

TEST_F(SimProtocolTest, UserNotificationsTrackQueryMovement) {
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 5.0;
  c.seed = 3;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok());
  // Trending traces move every query well past its 1% QAB repeatedly.
  EXPECT_GT(m->user_notifications, 0);
  // A notification requires a refresh to have arrived first.
  EXPECT_LE(m->user_notifications, m->refreshes * 6);
}


// The traced run must satisfy every invariant of the offline verifier
// (obs/trace_check.h), and the replay must re-derive each SimMetrics
// field exactly — the correctness oracle future performance work has to
// keep green.
void RunAndCheckTrace(const std::vector<PolynomialQuery>& queries,
                      const workload::TraceSet& traces, const Vector& rates,
                      SimConfig config) {
  obs::TraceSink sink;
  config.trace = &sink;
  auto m = RunSimulation(queries, traces, rates, config);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  const obs::TraceFile trace = sink.Collect();
  ASSERT_TRUE(trace.summary.has_value());
  auto report = obs::CheckTrace(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText(trace);
  const obs::TraceDerivedStats& d = report->derived;
  EXPECT_EQ(d.refreshes, m->refreshes);
  EXPECT_EQ(d.recomputations, m->recomputations);
  EXPECT_EQ(d.dab_change_messages, m->dab_change_messages);
  EXPECT_EQ(d.user_notifications, m->user_notifications);
  EXPECT_EQ(d.solver_failures, m->solver_failures);
  EXPECT_EQ(d.mean_fidelity_loss_pct, m->mean_fidelity_loss_pct);
}

TEST_F(SimProtocolTest, TraceReplayVerifiesDualDabRun) {
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 5.0;
  c.seed = 3;
  RunAndCheckTrace(queries_, traces_, rates_, c);
}

TEST_F(SimProtocolTest, TraceReplayVerifiesWsDabRun) {
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kWsDab;
  c.planner.dual.mu = 5.0;
  c.seed = 3;
  RunAndCheckTrace(queries_, traces_, rates_, c);
}

TEST_F(SimProtocolTest, TraceReplayVerifiesAaoPeriodicRun) {
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 5.0;
  c.aao_period_s = 50.0;
  c.seed = 3;
  RunAndCheckTrace(queries_, traces_, rates_, c);
}

TEST_F(SimProtocolTest, TraceReplayCatchesTamperedTrace) {
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 5.0;
  c.seed = 3;
  obs::TraceSink sink;
  c.trace = &sink;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok());
  obs::TraceFile trace = sink.Collect();
  // Drop one refresh arrival: the causal chain and the replayed counter
  // both break.
  for (size_t i = 0; i < trace.events.size(); ++i) {
    if (trace.events[i].kind == obs::TraceEventKind::kRefreshArrived) {
      trace.events.erase(trace.events.begin() + static_cast<long>(i));
      break;
    }
  }
  auto report = obs::CheckTrace(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST_F(SimProtocolTest, SurvivesSolverFailuresWithStalePlans) {
  // Failure injection: crippling the GP solver makes replans fail. The
  // simulator must keep the last valid plans, count the failures, and
  // finish the run instead of crashing.
  SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 5.0;
  c.planner.dual.solver.max_outer = 1;
  c.planner.dual.solver.max_newton_per_stage = 1;
  c.seed = 3;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  // Initial planning may itself fail with these limits; both outcomes
  // are acceptable, but a success must have recorded the failures.
  if (m.ok()) {
    EXPECT_GT(m->solver_failures, 0);
    EXPECT_GT(m->refreshes, 0);
  } else {
    EXPECT_EQ(m.status().code(), StatusCode::kInternal);
  }
}

}  // namespace
}  // namespace polydab::sim
