// Differential test harness for the memoizing solve engine
// (src/gp/solve_engine.h, SimConfig::solve_cache, docs/SOLVER.md).
// Oracles:
//
//  1. Serial byte identity: a solve-cache run's raw trace JSONL and
//     SimMetrics must be byte-identical to the engine-off serial run
//     under the same seed — across planner methods x shard counts x memo
//     capacities, with no canonicalization pass.
//  2. Threaded composition: solve-cache on top of threads=N must still
//     canonicalize to the threads=0 engine-off oracle.
//  3. Instrument parity: every instrument an engine-off run exports must
//     have the same counter value / histogram sample count in the
//     engine-on run (wall-clock sums excepted). Cache hits replay their
//     SolveStats, so gp.solver.* totals cannot drift.
//  4. Engine telemetry determinism: two identical engine-on runs must
//     report identical gp.engine.* hit/miss numbers.
//
// Config validation rides along. The binary is labelled `solver`, so the
// solver / solver-asan / solver-tsan presets run exactly this harness
// plus tests/solver_engine_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_canon.h"
#include "sim/simulation.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::sim {
namespace {

/// Same fixed workload as tests/coord_shard_diff_test.cc and
/// tests/threaded_diff_test.cc: 24 items, 500 ticks, 10 portfolio PPQs.
class SolveEngineDiffTest : public ::testing::Test {
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

  SimConfig Config(core::AssignmentMethod method, int shards) const {
    SimConfig c;
    c.planner.method = method;
    c.planner.dual.mu = 5.0;
    c.seed = 3;
    c.coord_shards = shards;
    c.shard_policy = shards > 1 ? ShardPolicy::kQueryHash
                                : ShardPolicy::kEqiComponents;
    return c;
  }

  /// Run, collect the trace (canonicalized when threaded), render JSONL;
  /// metrics through *out.
  std::string RunRendered(SimConfig config, SimMetrics* out) {
    obs::TraceSink sink;
    config.trace = &sink;
    auto m = RunSimulation(queries_, traces_, rates_, config);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok()) return "";
    *out = *m;
    obs::TraceFile trace = sink.Collect();
    if (config.threads > 0) {
      Status canon = obs::CanonicalizeThreadedTrace(&trace);
      EXPECT_TRUE(canon.ok()) << canon.ToString();
      if (!canon.ok()) return "";
    }
    return obs::TraceToJsonLines(trace);
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

void ExpectMetricsEqual(const SimMetrics& got, const SimMetrics& want,
                        const std::string& label) {
  EXPECT_EQ(got.refreshes, want.refreshes) << label;
  EXPECT_EQ(got.recomputations, want.recomputations) << label;
  EXPECT_EQ(got.dab_change_messages, want.dab_change_messages) << label;
  EXPECT_EQ(got.user_notifications, want.user_notifications) << label;
  EXPECT_EQ(got.solver_failures, want.solver_failures) << label;
  // Bitwise: byte-identity-by-construction is the engine's contract.
  EXPECT_EQ(got.mean_fidelity_loss_pct, want.mean_fidelity_loss_pct)
      << label;
}

TEST_F(SolveEngineDiffTest, SerialEngineRunsAreByteIdenticalToOracle) {
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab,
        core::AssignmentMethod::kOptimalRefresh}) {
    for (int shards : {1, 2, 4}) {
      SimMetrics oracle_metrics;
      const std::string oracle =
          RunRendered(Config(method, shards), &oracle_metrics);
      ASSERT_FALSE(oracle.empty());
      for (int cache : {16, 256}) {
        SCOPED_TRACE(std::string("method=") + core::Name(method) +
                     " shards=" + std::to_string(shards) +
                     " cache=" + std::to_string(cache));
        SimConfig c = Config(method, shards);
        c.solve_cache = cache;
        SimMetrics got_metrics;
        const std::string got = RunRendered(c, &got_metrics);
        ASSERT_FALSE(got.empty());
        // Raw bytes, no canonicalization.
        EXPECT_EQ(got, oracle);
        ExpectMetricsEqual(got_metrics, oracle_metrics, "vs oracle");
      }
    }
  }
}

TEST_F(SolveEngineDiffTest, ThreadedCacheRunMatchesCanonicalOracle) {
  // Workers share the one engine. The canonicalized trace must still
  // match the engine-off serial oracle.
  SimMetrics oracle_metrics;
  const std::string oracle = RunRendered(
      Config(core::AssignmentMethod::kDualDab, 2), &oracle_metrics);
  ASSERT_FALSE(oracle.empty());
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 2);
    c.threads = threads;
    c.solve_cache = 256;
    SimMetrics got_metrics;
    const std::string got = RunRendered(c, &got_metrics);
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got, oracle);
    ExpectMetricsEqual(got_metrics, oracle_metrics, "threaded cache");
  }
}

TEST_F(SolveEngineDiffTest, InstrumentTotalsMatchEngineOffOracle) {
  // Every instrument the engine-off run exports — sim.*, core.planner.*,
  // gp.solver.* — must report the same counter values and histogram
  // sample counts in the engine-on run. Wall-clock histogram sums are
  // the one legitimate difference. Cache hits replay their SolveStats,
  // which is what keeps gp.solver.* exact.
  obs::MetricRegistry oracle_reg, engine_reg;
  SimConfig oracle_cfg = Config(core::AssignmentMethod::kDualDab, 2);
  oracle_cfg.registry = &oracle_reg;
  ASSERT_TRUE(RunSimulation(queries_, traces_, rates_, oracle_cfg).ok());

  SimConfig engine_cfg = Config(core::AssignmentMethod::kDualDab, 2);
  engine_cfg.registry = &engine_reg;
  engine_cfg.solve_cache = 256;
  ASSERT_TRUE(RunSimulation(queries_, traces_, rates_, engine_cfg).ok());

  int compared = 0;
  for (const auto& entry : oracle_reg.Entries()) {
    if (entry.kind == obs::InstrumentKind::kCounter) {
      EXPECT_EQ(engine_reg.GetCounter(entry.name)->value(),
                entry.counter->value())
          << entry.name;
      ++compared;
    } else if (entry.kind == obs::InstrumentKind::kHistogram) {
      EXPECT_EQ(engine_reg.GetHistogram(entry.name)->count(),
                entry.histogram->count())
          << entry.name;
      if (entry.name.find("seconds") == std::string::npos) {
        EXPECT_EQ(engine_reg.GetHistogram(entry.name)->sum(),
                  entry.histogram->sum())
            << entry.name;
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 10);  // the walk saw the real export, not a stub

  // The engine-on run additionally exports its own telemetry, and the
  // duplicated-query workload must actually produce memo hits.
  EXPECT_GT(engine_reg.GetCounter("gp.engine.cache_misses")->value(), 0);
  EXPECT_EQ(oracle_reg.GetCounter("gp.engine.cache_misses")->value(), 0);
}

TEST_F(SolveEngineDiffTest, EngineTelemetryIsDeterministicAcrossRuns) {
  auto run = [&](obs::MetricRegistry* reg, SimMetrics* out) {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 2);
    c.registry = reg;
    c.solve_cache = 256;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    *out = *m;
  };
  obs::MetricRegistry r1, r2;
  SimMetrics m1, m2;
  run(&r1, &m1);
  run(&r2, &m2);
  ExpectMetricsEqual(m1, m2, "repeat run");
  for (const char* name :
       {"gp.engine.cache_hits", "gp.engine.cache_misses",
        "gp.engine.structure_reuses", "gp.engine.coef_log_skips"}) {
    EXPECT_EQ(r1.GetCounter(name)->value(), r2.GetCounter(name)->value())
        << name;
  }
}

TEST_F(SolveEngineDiffTest, InvalidSolveEngineConfigsAreRejected) {
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 1);
  c.solve_cache = -1;
  EXPECT_FALSE(RunSimulation(queries_, traces_, rates_, c).ok());
}

}  // namespace
}  // namespace polydab::sim
