// Differential tests for windowed series telemetry on real simulation
// runs (docs/OBSERVABILITY.md "Time series, SLOs and monitoring"),
// labelled `monitor`:
//
//  * the offline replay (FoldTraceSeries — the trace checker's alerting
//    mode) rebuilds the engine-recorded series bit for bit,
//  * attaching a recorder leaves the run's event stream untouched when
//    no rule fires (the byte-identity half of the feature's contract),
//  * per-window deltas sum exactly to the SimMetrics the run returned
//    (conservation),
//  * CheckTrace rejects tampered alert events and tampered series files,
//  * and the series JSON round-trips exactly on real output.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "sim/simulation.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"
#include "workload/trace.h"

namespace polydab {
namespace {

using obs::SeriesConfig;
using obs::SeriesFile;
using obs::SeriesRecorder;
using obs::TraceEventKind;
using obs::TraceFile;
using obs::TraceSink;

class SeriesDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    workload::TraceSetConfig tc;
    tc.num_items = 16;
    tc.num_ticks = 300;
    tc.vol_lo = 5e-4;
    tc.vol_hi = 2e-3;
    traces_ = *workload::GenerateTraceSet(tc, &rng);
    rates_ = *workload::EstimateRates(traces_, 60);
    workload::QueryGenConfig qc;
    qc.num_items = 16;
    qc.min_pairs = 2;
    qc.max_pairs = 3;
    queries_ = *workload::GeneratePortfolioQueries(
        6, qc, traces_.Snapshot(0), &rng);
  }

  struct Run {
    sim::SimMetrics metrics;
    TraceFile trace;
    SeriesFile series;
  };

  /// One seeded dual-DAB run with a capture sink; when \p window > 0 a
  /// SeriesRecorder observes the run with the given rule DSL.
  Run RunOnce(int64_t window, const std::string& rules_text,
              bool breakdown = false, int shards = 1,
              sim::ShardPolicy policy = sim::ShardPolicy::kEqiComponents) {
    sim::SimConfig c;
    c.planner.method = core::AssignmentMethod::kDualDab;
    c.seed = 77;
    c.coord_shards = shards;
    c.shard_policy = policy;
    TraceSink sink;
    c.trace = &sink;
    SeriesConfig sc;
    std::unique_ptr<SeriesRecorder> recorder;
    if (window > 0) {
      sc.window_ticks = window;
      sc.breakdown = breakdown;
      if (!rules_text.empty()) {
        auto rules =
            obs::ParseSloRules(rules_text, obs::SeriesMetricNames());
        EXPECT_TRUE(rules.ok()) << rules.status().ToString();
        sc.rules = std::move(rules).value();
      }
      recorder = std::make_unique<SeriesRecorder>(sc);
      c.series = recorder.get();
    }
    auto m = sim::RunSimulation(queries_, traces_, rates_, c);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    Run r;
    r.metrics = *m;
    r.trace = sink.Collect();
    if (recorder != nullptr) r.series = recorder->file();
    return r;
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

TEST_F(SeriesDiffTest, ReplayReproducesEngineSeriesExactly) {
  const Run run = RunOnce(
      5, "sim.coordinator.refreshes > 3 for 2; sim.run.live_queries < 1",
      /*breakdown=*/true);
  ASSERT_TRUE(run.series.has_totals);
  Result<SeriesFile> replay = obs::FoldTraceSeries(run.trace);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(*replay, run.series);
  EXPECT_EQ(obs::SeriesToJsonLines(*replay),
            obs::SeriesToJsonLines(run.series));

  // The full checker (which also verifies the alert events embedded in
  // the trace) accepts the run, with and without the series-file diff.
  obs::TraceCheckOptions options;
  options.series = &run.series;
  auto report = obs::CheckTrace(run.trace, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText(run.trace);
}

TEST_F(SeriesDiffTest, ShardedCoordinatorSeriesReplaysExactly) {
  // The series fold is lane-blind: a 4-lane coordinator emits one
  // time-ordered stream, so the replay and the alerting-mode checker
  // reproduce its series under either partition policy.
  for (sim::ShardPolicy policy :
       {sim::ShardPolicy::kEqiComponents, sim::ShardPolicy::kQueryHash}) {
    SCOPED_TRACE(sim::Name(policy));
    const Run run = RunOnce(
        5, "sim.coordinator.refreshes > 3 for 2; sim.run.live_queries < 1",
        /*breakdown=*/true, /*shards=*/4, policy);
    ASSERT_TRUE(run.series.has_totals);
    Result<SeriesFile> replay = obs::FoldTraceSeries(run.trace);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(*replay, run.series);
    obs::TraceCheckOptions options;
    options.series = &run.series;
    auto report = obs::CheckTrace(run.trace, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->ToText(run.trace);
  }
}

TEST_F(SeriesDiffTest, RecorderLeavesEventStreamUntouched) {
  const Run plain = RunOnce(0, "");
  // A rule that never breaches: live_queries < 1 is impossible here, so
  // no alert event is ever emitted and the streams must be identical.
  const Run observed = RunOnce(1, "sim.run.live_queries < 1");
  EXPECT_EQ(observed.trace.events, plain.trace.events);
  EXPECT_EQ(observed.trace.summaries, plain.trace.summaries);
  EXPECT_EQ(observed.trace.queries.size(), plain.trace.queries.size());
  // Only the series info keys differ.
  auto strip = [](std::map<std::string, std::string> info) {
    info.erase("series_window_s");
    info.erase("slo_rules");
    return info;
  };
  EXPECT_EQ(strip(observed.trace.info), plain.trace.info);
  EXPECT_NE(observed.trace.info.count("series_window_s"), 0u);
}

TEST_F(SeriesDiffTest, WindowDeltasConserveRunTotals) {
  for (const int64_t window : {1, 7, 500}) {
    const Run run = RunOnce(window, "");
    int64_t refreshes = 0, recomputations = 0, dab = 0, notifications = 0;
    for (const obs::SeriesWindow& w : run.series.windows) {
      refreshes += w.refreshes;
      recomputations += w.recomputations;
      dab += w.dab_changes;
      notifications += w.notifications;
    }
    EXPECT_EQ(refreshes, run.metrics.refreshes) << "window=" << window;
    EXPECT_EQ(recomputations, run.metrics.recomputations)
        << "window=" << window;
    EXPECT_EQ(dab, run.metrics.dab_change_messages) << "window=" << window;
    EXPECT_EQ(notifications, run.metrics.user_notifications)
        << "window=" << window;
    EXPECT_EQ(run.series.totals.refreshes, refreshes)
        << "window=" << window;
    // A 500 s window over a 300 s run degenerates to one (partial)
    // window; it must still carry everything.
    if (window == 500) {
      EXPECT_EQ(run.series.windows.size(), 1u);
    }
  }
}

TEST_F(SeriesDiffTest, CheckTraceRejectsTamperedAlertEvent) {
  // `refreshes >= 0` breaches every window, so the first close fires.
  Run run = RunOnce(5, "sim.coordinator.refreshes >= 0");
  ASSERT_GT(run.series.totals.alerts_fired, 0);
  bool tampered = false;
  for (obs::TraceEvent& e : run.trace.events) {
    if (e.kind == TraceEventKind::kAlertFire) {
      e.a += 1.0;  // claim a different observed value
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  auto report = obs::CheckTrace(run.trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ok());
}

TEST_F(SeriesDiffTest, CheckTraceRejectsTamperedSeriesFile) {
  Run run = RunOnce(5, "");
  ASSERT_FALSE(run.series.windows.empty());
  SeriesFile forged = run.series;
  forged.windows[0].refreshes += 1;
  obs::TraceCheckOptions options;
  options.series = &forged;
  auto report = obs::CheckTrace(run.trace, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ok());
}

TEST_F(SeriesDiffTest, CheckTraceReportsEachSeriesConfigFaultOnce) {
  Run run = RunOnce(5, "");
  auto count = [](const obs::TraceCheckReport& r, const std::string& what) {
    return std::count_if(
        r.failures.begin(), r.failures.end(),
        [&](const std::string& f) { return f.find(what) != f.npos; });
  };
  const std::string rules = "slo_rules info key is malformed";
  run.trace.info["slo_rules"] = "no.such.metric > 1";
  auto report = obs::CheckTrace(run.trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(count(*report, rules), 1);
  run.trace.info["series_window_s"] = "0";
  report = obs::CheckTrace(run.trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(count(*report, rules), 1);
  EXPECT_EQ(count(*report, "series_window_s info \"0\" is not a positive"),
            1);
}

TEST_F(SeriesDiffTest, SeriesJsonRoundTripsOnRealRun) {
  const Run run = RunOnce(3, "sim.coordinator.recomputations > 1000",
                          /*breakdown=*/true);
  const std::string text = obs::SeriesToJsonLines(run.series);
  Result<SeriesFile> parsed = obs::ParseSeriesJsonLines(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, run.series);
  EXPECT_EQ(obs::SeriesToJsonLines(*parsed), text);
}

}  // namespace
}  // namespace polydab
