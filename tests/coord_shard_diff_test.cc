// Differential test harness for the sharded coordinator
// (SimConfig::coord_shards). Three oracles:
//
//  1. Goldens: with coord_shards = 1 the simulator must reproduce, bit
//     for bit, the SimMetrics of the pre-sharding serial coordinator,
//     captured from the last serial build for a fixed workload across a
//     grid of seeds x planner methods (regeneration recipe below).
//  2. Exact shard-count invariance: on configurations where the
//     coordinator itself costs nothing (check/push/recompute all zero,
//     network delay nonzero), lane queueing cannot shift any service
//     time, so every shard count must produce identical metrics while
//     still exercising the partition / dispatch / barrier code.
//  3. Trace replay: sharded runs under realistic delays are verified by
//     obs::CheckTrace — every SimMetrics field re-derived exactly plus
//     the per-lane and cross-shard barrier invariants of trace_check.h —
//     including an AAO-period run, whose joint solve is the global
//     cross-lane synchronization point.
//
// Seed determinism rides along: two runs with an identical SimConfig must
// produce byte-identical trace JSONL (the run report contains wall-clock
// timings, so the trace is the byte-comparable artifact; the e2e ctest
// lane compares streamed trace files the same way).

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "sim/simulation.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::sim {
namespace {

/// The fixed workload every case in this file runs: 24 items, 500 ticks,
/// 10 portfolio PPQs of 2-3 bilinear pairs. Changing any constant here
/// invalidates kGolden below.
class CoordShardDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    workload::TraceSetConfig tc;
    tc.num_items = 24;
    tc.num_ticks = 500;
    tc.vol_lo = 5e-4;
    tc.vol_hi = 2e-3;
    traces_ = *workload::GenerateTraceSet(tc, &rng);
    rates_ = *workload::EstimateRates(traces_, 60);
    workload::QueryGenConfig qc;
    qc.num_items = 24;
    qc.min_pairs = 2;
    qc.max_pairs = 3;
    queries_ = *workload::GeneratePortfolioQueries(10, qc,
                                                   traces_.Snapshot(0), &rng);
  }

  SimConfig Config(core::AssignmentMethod method, double mu, uint64_t seed,
                   double aao = 0.0) const {
    SimConfig c;
    c.planner.method = method;
    c.planner.dual.mu = mu;
    c.seed = seed;
    c.aao_period_s = aao;
    return c;
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

struct Golden {
  const char* name;
  core::AssignmentMethod method;
  double mu;
  double aao;
  uint64_t seed;
  int64_t refreshes;
  int64_t recomputations;
  int64_t dab_change_messages;
  int64_t user_notifications;
  int64_t solver_failures;
  double mean_fidelity_loss_pct;
};

// Captured from the serial coordinator with the fixture above, using the
// tail-inclusive EstimateRates (the trailing num_ticks % interval_ticks
// remainder participates as a final shorter sample). To regenerate after
// an *intentional* protocol change: temporarily print the six SimMetrics
// fields ("%lld ... %.17g" for the loss) for each case with
// coord_shards = 1 and paste the values back here.
constexpr double kAao = 120.0;
const Golden kGolden[] = {
    {"dual_s3", core::AssignmentMethod::kDualDab, 5.0, 0.0, 3,
     821, 61, 80, 432, 0, 0.52104208416833664},
    {"dual_s11", core::AssignmentMethod::kDualDab, 5.0, 0.0, 11,
     821, 61, 79, 440, 0, 0.5410821643286573},
    {"optimal_s3", core::AssignmentMethod::kOptimalRefresh, 1.0, 0.0, 3,
     756, 3147, 3676, 419, 0, 0.5410821643286573},
    {"optimal_s11", core::AssignmentMethod::kOptimalRefresh, 1.0, 0.0, 11,
     756, 3147, 3676, 428, 0, 0.5410821643286573},
    {"wsdab_s3", core::AssignmentMethod::kWsDab, 1.0, 0.0, 3,
     886, 4195, 4766, 444, 0, 0.50100200400801609},
    {"wsdab_s11", core::AssignmentMethod::kWsDab, 1.0, 0.0, 11,
     886, 4189, 4757, 441, 0, 0.4208416833667335},
    // This workload's periodic joint solves used to fail 69 times (the
    // stale plans were kept); the solver-robustness sweep of
    // docs/SOLVER.md — budget-free clamped travel, Levenberg-damped stage
    // retry, cold restart after a failed warm descent — converges all of
    // them, which shifts every downstream count. Re-pinned accordingly.
    {"aao120_s3", core::AssignmentMethod::kDualDab, 5.0, kAao, 3,
     760, 64, 70, 442, 0, 0.6412825651302605},
};

void ExpectMetricsEqual(const SimMetrics& got, const SimMetrics& want,
                        const std::string& label) {
  EXPECT_EQ(got.refreshes, want.refreshes) << label;
  EXPECT_EQ(got.recomputations, want.recomputations) << label;
  EXPECT_EQ(got.dab_change_messages, want.dab_change_messages) << label;
  EXPECT_EQ(got.user_notifications, want.user_notifications) << label;
  EXPECT_EQ(got.solver_failures, want.solver_failures) << label;
  // Bitwise, not approximate: the serial path's floating-point
  // accumulation sequence is part of the contract.
  EXPECT_EQ(got.mean_fidelity_loss_pct, want.mean_fidelity_loss_pct)
      << label;
}

TEST_F(CoordShardDiffTest, OneShardIsBitIdenticalToSerialGoldens) {
  for (const Golden& g : kGolden) {
    for (ShardPolicy pol :
         {ShardPolicy::kEqiComponents, ShardPolicy::kQueryHash}) {
      SimConfig c = Config(g.method, g.mu, g.seed, g.aao);
      c.coord_shards = 1;
      c.shard_policy = pol;
      auto m = RunSimulation(queries_, traces_, rates_, c);
      ASSERT_TRUE(m.ok()) << g.name << ": " << m.status().ToString();
      SimMetrics want;
      want.refreshes = g.refreshes;
      want.recomputations = g.recomputations;
      want.dab_change_messages = g.dab_change_messages;
      want.user_notifications = g.user_notifications;
      want.solver_failures = g.solver_failures;
      want.mean_fidelity_loss_pct = g.mean_fidelity_loss_pct;
      ExpectMetricsEqual(*m, want,
                         std::string(g.name) + " policy=" + Name(pol));
    }
  }
}

TEST_F(CoordShardDiffTest, ZeroCoordinatorCostMakesShardCountIrrelevant) {
  // Under zero_delay no lane is ever busy, so no refresh queues, no
  // service time shifts, and the event timeline is the same for every
  // shard count — while the partition, home-lane routing, remote
  // dispatch and barrier-sync code all still run. (Individual delay
  // means cannot be zeroed: Rng::Pareto requires mean > 0.)
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab,
        core::AssignmentMethod::kOptimalRefresh}) {
    for (ShardPolicy pol :
         {ShardPolicy::kEqiComponents, ShardPolicy::kQueryHash}) {
      SimConfig base = Config(method, 5.0, 3);
      base.delays.zero_delay = true;
      base.shard_policy = pol;
      auto serial = RunSimulation(queries_, traces_, rates_, base);
      ASSERT_TRUE(serial.ok());
      for (int shards : {2, 4}) {
        SimConfig c = base;
        c.coord_shards = shards;
        auto m = RunSimulation(queries_, traces_, rates_, c);
        ASSERT_TRUE(m.ok());
        ExpectMetricsEqual(
            *m, *serial,
            std::string("shards=") + std::to_string(shards) +
                " policy=" + Name(pol) + " method=" + core::Name(method));
      }
    }
  }
}

/// Run with a capture trace, replay it through CheckTrace, and demand
/// zero invariant failures plus an exact metrics re-derivation.
void RunAndVerify(const std::vector<PolynomialQuery>& queries,
                  const workload::TraceSet& traces, const Vector& rates,
                  SimConfig config, int* barrier_count = nullptr) {
  obs::TraceSink sink;
  config.trace = &sink;
  auto m = RunSimulation(queries, traces, rates, config);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  const obs::TraceFile trace = sink.Collect();
  if (barrier_count != nullptr) {
    *barrier_count = 0;
    for (const obs::TraceEvent& e : trace.events) {
      if (e.kind == obs::TraceEventKind::kShardBarrier) ++*barrier_count;
    }
  }
  auto check = obs::CheckTrace(trace);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->ok()) << check->ToText(trace);
  ASSERT_TRUE(trace.summary.has_value());
  EXPECT_EQ(check->derived.refreshes, m->refreshes);
  EXPECT_EQ(check->derived.recomputations, m->recomputations);
  EXPECT_EQ(check->derived.dab_change_messages, m->dab_change_messages);
  EXPECT_EQ(check->derived.user_notifications, m->user_notifications);
  EXPECT_EQ(check->derived.solver_failures, m->solver_failures);
  EXPECT_EQ(check->derived.mean_fidelity_loss_pct,
            m->mean_fidelity_loss_pct);
}

TEST_F(CoordShardDiffTest, ShardedRunsKeepTracecheckGreen) {
  // Realistic (default) delays: lanes really queue and overlap here, so
  // this is the oracle that the reordered coordinator never violates the
  // SIII-A.2 trace invariants or miscounts a metric.
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab, core::AssignmentMethod::kWsDab}) {
    for (ShardPolicy pol :
         {ShardPolicy::kEqiComponents, ShardPolicy::kQueryHash}) {
      for (int shards : {1, 2, 4}) {
        SimConfig c = Config(method, 5.0, 3);
        c.coord_shards = shards;
        c.shard_policy = pol;
        SCOPED_TRACE(std::string("method=") + core::Name(method) +
                     " policy=" + Name(pol) +
                     " shards=" + std::to_string(shards));
        RunAndVerify(queries_, traces_, rates_, c);
      }
    }
  }
}

TEST_F(CoordShardDiffTest, QueryHashShardingCrossesLanesAndBarriers) {
  // The hash partition splits item-sharing queries across lanes, so this
  // workload must actually take the cross-shard EQI merge path; the
  // barrier events prove it (and tracecheck verifies their ordering
  // against every dab_change_sent).
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0, 3);
  c.coord_shards = 4;
  c.shard_policy = ShardPolicy::kQueryHash;
  int barriers = 0;
  RunAndVerify(queries_, traces_, rates_, c, &barriers);
  EXPECT_GT(barriers, 0);
}

TEST_F(CoordShardDiffTest, AaoPeriodShardedRunVerifies) {
  // The acceptance-criteria case: coord_shards in {2, 4} with a periodic
  // joint AAO solve, whose global barrier synchronizes every lane before
  // the jointly recomputed filters ship.
  for (int shards : {2, 4}) {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0, 3, kAao);
    c.coord_shards = shards;
    c.shard_policy = ShardPolicy::kQueryHash;
    SCOPED_TRACE("shards=" + std::to_string(shards));
    int barriers = 0;
    RunAndVerify(queries_, traces_, rates_, c, &barriers);
    EXPECT_GT(barriers, 0);
  }
}

TEST_F(CoordShardDiffTest, InvalidShardCountIsRejected) {
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0, 3);
  c.coord_shards = 0;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  EXPECT_FALSE(m.ok());
}

TEST_F(CoordShardDiffTest, IdenticalConfigsProduceByteIdenticalTraces) {
  // Seed-determinism regression: the sharded coordinator must not
  // introduce any nondeterministic iteration (hash-map order, etc.). The
  // canonical JSONL rendering is byte-exact, so comparing the rendered
  // traces compares every event, value and cause id of the two runs.
  for (int shards : {1, 4}) {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0, 3, kAao);
    c.coord_shards = shards;
    c.shard_policy = ShardPolicy::kQueryHash;
    std::string rendered[2];
    SimMetrics metrics[2];
    for (int run = 0; run < 2; ++run) {
      obs::TraceSink sink;
      SimConfig rc = c;
      rc.trace = &sink;
      auto m = RunSimulation(queries_, traces_, rates_, rc);
      ASSERT_TRUE(m.ok());
      metrics[run] = *m;
      rendered[run] = obs::TraceToJsonLines(sink.Collect());
    }
    EXPECT_EQ(rendered[0], rendered[1]) << "shards=" << shards;
    ExpectMetricsEqual(metrics[0], metrics[1],
                       "shards=" + std::to_string(shards));
  }
}

TEST_F(CoordShardDiffTest, QueueWaitRecordedOncePerServicedRefresh) {
  // Regression: the queue-wait histogram used to record the partial wait
  // accumulated so far on *every* re-deferral of a refresh, inflating the
  // count and skewing the distribution low. The total wait must be
  // recorded exactly once, at service time — so the histogram must agree
  // with the per-arrival waits the trace records (kRefreshArrived.b).
  for (int shards : {1, 2}) {
    SimConfig c = Config(core::AssignmentMethod::kOptimalRefresh, 1.0, 3);
    c.coord_shards = shards;
    // Saturate the lanes so refreshes genuinely queue (and re-defer).
    c.delays.recompute_cpu_s = 0.5;
    obs::MetricRegistry registry;
    obs::TraceSink sink;
    c.registry = &registry;
    c.trace = &sink;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    int64_t waited = 0;
    double total = 0.0;
    double max_wait = 0.0;
    for (const obs::TraceEvent& e : sink.Collect().events) {
      if (e.kind != obs::TraceEventKind::kRefreshArrived) continue;
      if (e.b > 0.0) {
        ++waited;
        total += e.b;
        max_wait = std::max(max_wait, e.b);
      }
    }
    ASSERT_GT(waited, 0) << "config did not induce queueing; shards="
                         << shards;
    const obs::Histogram* h =
        registry.GetHistogram("sim.coordinator.queue_wait_seconds");
    EXPECT_EQ(h->count(), waited) << "shards=" << shards;
    EXPECT_EQ(h->max(), max_wait) << "shards=" << shards;
    EXPECT_DOUBLE_EQ(h->sum(), total) << "shards=" << shards;
  }
}

TEST_F(CoordShardDiffTest, SerialTracesCarryNoShardStamps) {
  // coord_shards = 1 must emit byte-wise the same records as before the
  // shard field existed: no lane stamps, no barrier events, no
  // coord_shards info key.
  obs::TraceSink sink;
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5.0, 3);
  c.trace = &sink;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok());
  const obs::TraceFile trace = sink.Collect();
  EXPECT_EQ(trace.info.count("coord_shards"), 0u);
  for (const obs::TraceEvent& e : trace.events) {
    EXPECT_EQ(e.shard, -1);
    EXPECT_NE(e.kind, obs::TraceEventKind::kShardBarrier);
  }
  for (const obs::TraceQueryInfo& q : trace.queries) {
    EXPECT_EQ(q.shard, -1);
  }
  // The sim_config info string legitimately mentions coord_shards=1; no
  // record may carry a "shard" JSON field though.
  EXPECT_EQ(obs::TraceToJsonLines(trace).find("\"shard\""),
            std::string::npos);
}

}  // namespace
}  // namespace polydab::sim
