#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "net/relay.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "sim/simulation.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    workload::TraceSetConfig tc;
    tc.num_items = 16;
    tc.num_ticks = 400;
    traces_ = *workload::GenerateTraceSet(tc, &rng);
    rates_ = *workload::EstimateRates(traces_, 60);

    workload::QueryGenConfig qc;
    qc.num_items = 16;
    qc.min_pairs = 2;
    qc.max_pairs = 2;
    queries_ = *workload::GeneratePortfolioQueries(12, qc,
                                                   traces_.Snapshot(0), &rng);
  }

  /// Run the relay over \p queries with a trace sink and \p registry;
  /// the trace must replay green and re-derive RelayMetrics exactly.
  void RunTraced(const std::vector<PolynomialQuery>& queries,
                 RelayConfig config, obs::TraceFile* trace,
                 obs::MetricRegistry* registry, RelayMetrics* out) {
    obs::TraceSink sink;
    config.trace = &sink;
    config.registry = registry;
    auto m = RunRelayOverlay(queries, traces_, rates_, config);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    *out = *m;
    *trace = sink.Collect();
    ASSERT_TRUE(trace->summary.has_value());
    auto report = obs::CheckTrace(*trace);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->ToText(*trace);
    EXPECT_EQ(report->derived.refreshes, m->refreshes);
    EXPECT_EQ(report->derived.recomputations, m->recomputations);
    EXPECT_EQ(report->derived.dab_change_messages,
              m->dab_change_messages);
    EXPECT_EQ(report->derived.solver_failures, m->solver_failures);
    EXPECT_EQ(report->derived.mean_fidelity_loss_pct,
              m->mean_fidelity_loss_pct);
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

TEST_F(NetTest, MetricsSumAcrossCoordinators) {
  // The net.relay.* counters mirror RelayMetrics, the per-node arrival
  // samples sum to the overlay's refreshes, and tracecheck's run-report
  // diff takes its relay branch and agrees.
  RelayConfig rc;
  rc.num_coordinators = 4;
  rc.planner.dual.mu = 5.0;
  obs::TraceFile trace;
  obs::MetricRegistry registry;
  RelayMetrics m;
  ASSERT_NO_FATAL_FAILURE(RunTraced(queries_, rc, &trace, &registry, &m));
  EXPECT_GT(m.recomputations, 0);

  obs::RunReport rr = obs::RunReport::FromRegistry(registry);
  auto counter = [&](const std::string& name) {
    const obs::RunReport::Entry* e = rr.Find(name);
    EXPECT_NE(e, nullptr) << name;
    return e == nullptr ? -1 : e->counter_value;
  };
  EXPECT_EQ(counter("net.relay.refreshes"), m.refreshes);
  EXPECT_EQ(counter("net.relay.recomputations"), m.recomputations);
  EXPECT_EQ(counter("net.relay.dab_change_messages"), m.dab_change_messages);
  EXPECT_EQ(counter("net.relay.solver_failures"), m.solver_failures);
  const obs::RunReport::Entry* loss =
      rr.Find("net.relay.fidelity.mean_loss_pct");
  ASSERT_NE(loss, nullptr);
  EXPECT_EQ(loss->gauge_value, m.mean_fidelity_loss_pct);
  const obs::RunReport::Entry* arrivals = rr.Find("net.relay.node_arrivals");
  ASSERT_NE(arrivals, nullptr);
  EXPECT_EQ(arrivals->count, 4);
  EXPECT_EQ(arrivals->sum, static_cast<double>(m.refreshes));

  obs::TraceCheckOptions opt;
  opt.report = &rr;
  auto check = obs::CheckTrace(trace, opt);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->ok()) << check->ToText(trace);

  // A report that disagrees with the trace fails under the relay's names.
  for (obs::RunReport::Entry& e : rr.entries) {
    if (e.name == "net.relay.recomputations") ++e.counter_value;
  }
  check = obs::CheckTrace(trace, opt);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  ASSERT_FALSE(check->ok());
  EXPECT_NE(check->ToText(trace).find("net.relay.recomputations"),
            std::string::npos)
      << check->ToText(trace);
}

TEST_F(NetTest, EveryCoordinatorGetsQueries) {
  // Round-robin placement: 12 queries over 4 nodes, query k on node k % 4,
  // read back from the trace's query_info records.
  RelayConfig rc;
  rc.num_coordinators = 4;
  rc.planner.dual.mu = 5.0;
  obs::TraceFile trace;
  obs::MetricRegistry registry;
  RelayMetrics m;
  ASSERT_NO_FATAL_FAILURE(RunTraced(queries_, rc, &trace, &registry, &m));
  ASSERT_EQ(trace.queries.size(), queries_.size());
  std::vector<int> hosted(4, 0);
  for (size_t k = 0; k < trace.queries.size(); ++k) {
    const obs::TraceQueryInfo& q = trace.queries[k];
    EXPECT_EQ(q.query, queries_[k].id);
    EXPECT_EQ(q.node, static_cast<int32_t>(k % 4)) << "query " << q.query;
    ++hosted[static_cast<size_t>(q.node)];
  }
  EXPECT_EQ(hosted, std::vector<int>(4, 3));
}

TEST_F(NetTest, MoreCoordinatorsThanQueriesIsFine) {
  // 10 nodes, 3 queries: nodes 3..9 host nothing.
  const std::vector<PolynomialQuery> three(queries_.begin(),
                                           queries_.begin() + 3);
  RelayConfig rc;
  rc.num_coordinators = 10;
  rc.planner.dual.mu = 5.0;
  obs::TraceFile trace;
  obs::MetricRegistry registry;
  RelayMetrics m;
  ASSERT_NO_FATAL_FAILURE(RunTraced(three, rc, &trace, &registry, &m));
  EXPECT_GT(m.refreshes, 0);
  ASSERT_EQ(trace.queries.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(trace.queries[k].node, static_cast<int32_t>(k));
  }
}

TEST_F(NetTest, RelayOverlayZeroDelayKeepsFidelity) {
  RelayConfig rc;
  rc.num_coordinators = 4;
  rc.planner.method = core::AssignmentMethod::kDualDab;
  rc.planner.dual.mu = 5.0;
  rc.delays.zero_delay = true;
  auto m = RunRelayOverlay(queries_, traces_, rates_, rc);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_NEAR(m->mean_fidelity_loss_pct, 0.0, 1e-9);
  EXPECT_GT(m->refreshes, 0);
}

TEST_F(NetTest, RelayForwardsOnlyWhatSubtreesNeed) {
  RelayConfig one;
  one.num_coordinators = 1;
  one.planner.dual.mu = 5.0;
  auto m1 = RunRelayOverlay(queries_, traces_, rates_, one);
  ASSERT_TRUE(m1.ok());

  // The same queries spread over 4 nodes: spreading adds relay hops, so
  // total arrivals can only grow.
  RelayConfig four = one;
  four.num_coordinators = 4;
  auto m4 = RunRelayOverlay(queries_, traces_, rates_, four);
  ASSERT_TRUE(m4.ok());
  EXPECT_GE(m4->refreshes, m1->refreshes);
}

TEST_F(NetTest, RelayDualBeatsOptimalRefreshOnRecomputations) {
  RelayConfig dual;
  dual.num_coordinators = 4;
  dual.planner.method = core::AssignmentMethod::kDualDab;
  dual.planner.dual.mu = 5.0;
  RelayConfig opt = dual;
  opt.planner.method = core::AssignmentMethod::kOptimalRefresh;
  auto md = RunRelayOverlay(queries_, traces_, rates_, dual);
  auto mo = RunRelayOverlay(queries_, traces_, rates_, opt);
  ASSERT_TRUE(md.ok());
  ASSERT_TRUE(mo.ok());
  EXPECT_LT(md->recomputations, mo->recomputations);
}

TEST_F(NetTest, DualDabBeatsOptimalRefreshOnOverlayToo) {
  // Figure 8(c)'s overlay shape: 10 coordinators in a fanout-3 tree with
  // the default per-hop delays.
  RelayConfig dual;
  dual.num_coordinators = 10;
  dual.fanout = 3;
  dual.planner.method = core::AssignmentMethod::kDualDab;
  dual.planner.dual.mu = 5.0;
  RelayConfig opt = dual;
  opt.planner.method = core::AssignmentMethod::kOptimalRefresh;
  auto md = RunRelayOverlay(queries_, traces_, rates_, dual);
  auto mo = RunRelayOverlay(queries_, traces_, rates_, opt);
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  ASSERT_TRUE(mo.ok()) << mo.status().ToString();
  EXPECT_LT(md->recomputations, mo->recomputations);
}

TEST_F(NetTest, RelayAgreesWithApproximationOnOrdering) {
  // The single-coordinator simulation approximates the overlay as one
  // node with no relay hops; it and the relay must agree on the scheme
  // ordering Figure 8(c) measures.
  sim::SimConfig sc;
  sc.planner.dual.mu = 5.0;
  RelayConfig rc;
  rc.num_coordinators = 4;
  rc.planner.dual.mu = 5.0;

  sc.planner.method = core::AssignmentMethod::kDualDab;
  rc.planner.method = core::AssignmentMethod::kDualDab;
  auto approx_dual = sim::RunSimulation(queries_, traces_, rates_, sc);
  auto relay_dual = RunRelayOverlay(queries_, traces_, rates_, rc);
  sc.planner.method = core::AssignmentMethod::kOptimalRefresh;
  rc.planner.method = core::AssignmentMethod::kOptimalRefresh;
  auto approx_opt = sim::RunSimulation(queries_, traces_, rates_, sc);
  auto relay_opt = RunRelayOverlay(queries_, traces_, rates_, rc);
  ASSERT_TRUE(approx_dual.ok() && relay_dual.ok() && approx_opt.ok() &&
              relay_opt.ok());
  EXPECT_LT(approx_dual->recomputations, approx_opt->recomputations);
  EXPECT_LT(relay_dual->recomputations, relay_opt->recomputations);
}

TEST_F(NetTest, RelayTraceReplayVerifies) {
  // The overlay's causal trace must satisfy the offline verifier's
  // invariants, and the replayed totals must match RelayMetrics exactly.
  RelayConfig rc;
  rc.num_coordinators = 4;
  rc.planner.method = core::AssignmentMethod::kDualDab;
  rc.planner.dual.mu = 5.0;
  obs::TraceFile trace;
  obs::MetricRegistry registry;
  RelayMetrics m;
  ASSERT_NO_FATAL_FAILURE(RunTraced(queries_, rc, &trace, &registry, &m));
}

TEST_F(NetTest, RelayRejectsBadConfig) {
  RelayConfig rc;
  rc.num_coordinators = 0;
  EXPECT_FALSE(RunRelayOverlay(queries_, traces_, rates_, rc).ok());
  rc.num_coordinators = 2;
  rc.fanout = 0;
  EXPECT_FALSE(RunRelayOverlay(queries_, traces_, rates_, rc).ok());
  rc.fanout = 2;
  EXPECT_FALSE(RunRelayOverlay({}, traces_, rates_, rc).ok());
}

TEST_F(NetTest, RejectsBadConfig) {
  // Delay models that would poison or abort the run's samplers are
  // rejected up front, naming the field.
  RelayConfig rc;
  rc.num_coordinators = 2;
  rc.delays.node_node_mean = -0.1;
  Result<RelayMetrics> m = RunRelayOverlay(queries_, traces_, rates_, rc);
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().ToString().find("node_node_mean"), std::string::npos)
      << m.status().ToString();
  rc.delays = sim::DelayConfig{};
  rc.delays.pareto_shape = std::nan("");
  EXPECT_FALSE(RunRelayOverlay(queries_, traces_, rates_, rc).ok());
  rc.delays = sim::DelayConfig{};
  EXPECT_TRUE(RunRelayOverlay(queries_, traces_, rates_, rc).ok());
}

}  // namespace
}  // namespace polydab::net
