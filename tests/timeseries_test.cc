// Tests for the windowed time-series layer: the SLO rule DSL and its
// fire/resolve state machine (obs/slo.h), the series JSON-lines format's
// exact round-trip and strict rejections, and the SeriesRecorder's
// engine-vs-replay equivalence on a hand-built event stream — the unit
// form of the property the trace checker's alerting mode enforces on
// whole simulation runs (obs/trace_check.h mode (f)).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "record_test_util.h"

namespace polydab::obs {
namespace {

// ---------------------------------------------------------------------
// SLO DSL

TEST(SloParseTest, ParsesEveryOperatorAndOptionalForClause) {
  auto rules = ParseSloRules(
      "sim.coordinator.refreshes > 10; "
      "sim.coordinator.recomputations < 5 for 3; "
      "sim.fidelity.violation_rate >= 0.25; "
      "sim.run.live_queries <= 100 for 7",
      SeriesMetricNames());
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 4u);
  EXPECT_EQ((*rules)[0].op, SloOp::kGt);
  EXPECT_EQ((*rules)[0].windows, 1);
  EXPECT_EQ((*rules)[1].op, SloOp::kLt);
  EXPECT_EQ((*rules)[1].windows, 3);
  EXPECT_EQ((*rules)[2].op, SloOp::kGe);
  EXPECT_EQ((*rules)[2].threshold, 0.25);
  EXPECT_EQ((*rules)[3].op, SloOp::kLe);
  EXPECT_EQ((*rules)[3].windows, 7);
}

TEST(SloParseTest, CanonicalRenderingRoundTripsExactly) {
  auto rules = ParseSloRules(
      "sim.fault.drops>5 ; sim.coordinator.queue_wait_p99 >= 0.001 for 2",
      SeriesMetricNames());
  // The DSL needs whitespace between tokens; the first segment is
  // rejected — keep it well-formed here.
  EXPECT_FALSE(rules.ok());
  rules = ParseSloRules(
      "sim.fault.drops > 5; sim.coordinator.queue_wait_p99 >= 0.001 for 2",
      SeriesMetricNames());
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  const std::string canonical = CanonicalSloRules(*rules);
  auto reparsed = ParseSloRules(canonical, {});
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*reparsed, *rules);
  EXPECT_EQ(CanonicalSloRules(*reparsed), canonical);
}

TEST(SloParseTest, RejectsMalformedRules) {
  const std::vector<std::string>& known = SeriesMetricNames();
  // Unknown metric name.
  EXPECT_FALSE(ParseSloRules("no.such.metric > 1", known).ok());
  // Unknown operator.
  EXPECT_FALSE(
      ParseSloRules("sim.coordinator.refreshes != 1", known).ok());
  // Non-numeric / non-finite thresholds.
  EXPECT_FALSE(
      ParseSloRules("sim.coordinator.refreshes > ten", known).ok());
  EXPECT_FALSE(
      ParseSloRules("sim.coordinator.refreshes > inf", known).ok());
  // Bad `for` clauses: zero, negative, non-numeric, misspelled keyword.
  EXPECT_FALSE(
      ParseSloRules("sim.coordinator.refreshes > 1 for 0", known).ok());
  EXPECT_FALSE(
      ParseSloRules("sim.coordinator.refreshes > 1 for -2", known).ok());
  EXPECT_FALSE(
      ParseSloRules("sim.coordinator.refreshes > 1 for x", known).ok());
  EXPECT_FALSE(
      ParseSloRules("sim.coordinator.refreshes > 1 when 3", known).ok());
  // Trailing tokens and truncated rules.
  EXPECT_FALSE(
      ParseSloRules("sim.coordinator.refreshes > 1 for 2 extra", known)
          .ok());
  EXPECT_FALSE(ParseSloRules("sim.coordinator.refreshes >", known).ok());
}

TEST(SloParseTest, BlankSegmentsAreSkipped) {
  auto rules =
      ParseSloRules(" ; sim.coordinator.refreshes > 1 ; ", SeriesMetricNames());
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->size(), 1u);
  EXPECT_TRUE(ParseSloRules("", SeriesMetricNames())->empty());
}

TEST(SloEngineTest, FiresAfterNConsecutiveBreachesAndResolves) {
  SloRule rule;
  rule.metric = "sim.coordinator.refreshes";
  rule.op = SloOp::kGt;
  rule.threshold = 10.0;
  rule.windows = 3;
  SloEngine engine({rule});
  std::vector<SloAlert> alerts;
  // Two breaches, an interruption (counter resets), then three breaches
  // (fires on the third), one more breach (stays firing, no event), then
  // a pass (resolves).
  const double values[] = {20, 20, 5, 20, 20, 20, 20, 5};
  for (int w = 0; w < 8; ++w) {
    engine.OnWindowClose(w, static_cast<double>(w + 1), {values[w]},
                         /*cause=*/100 + static_cast<uint64_t>(w), &alerts);
  }
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_TRUE(alerts[0].fire);
  EXPECT_EQ(alerts[0].window, 5);
  EXPECT_EQ(alerts[0].consecutive, 3);
  EXPECT_EQ(alerts[0].value, 20.0);
  EXPECT_EQ(alerts[0].cause, 105u);
  EXPECT_FALSE(alerts[1].fire);
  EXPECT_EQ(alerts[1].window, 7);
  EXPECT_EQ(alerts[1].consecutive, 0);
}

TEST(SloEngineTest, NoResolveWithoutAPrecedingFire) {
  SloRule rule;
  rule.metric = "sim.coordinator.refreshes";
  rule.op = SloOp::kLt;
  rule.threshold = 1.0;
  SloEngine engine({rule});
  std::vector<SloAlert> alerts;
  for (int w = 0; w < 5; ++w) {
    engine.OnWindowClose(w, static_cast<double>(w + 1), {5.0}, 0, &alerts);
  }
  EXPECT_TRUE(alerts.empty());
}

// ---------------------------------------------------------------------
// Series JSON lines

SeriesFile MakeSampleSeries() {
  SeriesFile f;
  f.info["tool"] = "timeseries_test";
  SloRule rule;
  rule.metric = "sim.coordinator.refreshes";
  rule.op = SloOp::kGe;
  rule.threshold = 2.0;
  rule.windows = 2;
  f.rules.push_back(rule);

  SeriesWindow w0;
  w0.index = 0;
  w0.start = 0.0;
  w0.end = 2.0;
  w0.refreshes = 3;
  w0.violations = 1;
  w0.samples = 8;
  w0.violation_rate = 1.0 / 8.0;
  w0.live_queries = 4;
  w0.queue_wait_count = 3;
  w0.queue_wait_p50 = 0.125;
  w0.queue_wait_p90 = 0.5;
  w0.queue_wait_p99 = 0.5;
  f.windows.push_back(w0);
  SeriesWindow w1;
  w1.index = 1;
  w1.start = 2.0;
  w1.end = 3.5;  // trailing partial window
  w1.recomputations = 2;
  w1.live_queries = 4;
  f.windows.push_back(w1);
  SeriesWindow w2;  // every metric off zero, so every key is on the line
  w2.index = 2;
  w2.start = 3.5;
  w2.end = 5.5;
  auto count_up = [k = 0](const char*, auto& m) mutable { m = ++k; };
  SeriesWindow::MetricFields(w2, count_up);
  w2.violation_rate = 0.1;
  f.windows.push_back(w2);

  SeriesDimRow dim;
  dim.index = 0;
  dim.dim = "query";
  dim.id = 7;
  dim.refreshes = 3;
  f.dims.push_back(dim);
  SeriesDimRow lane;
  lane.index = 2;
  lane.dim = "lane";
  lane.id = 0;
  lane.recomputations = 2;
  lane.notifications = 1;
  f.dims.push_back(lane);
  SeriesDimRow source = lane;
  source.dim = "source";
  source.id = 3;
  source.refreshes = 1;
  f.dims.push_back(source);

  SeriesSample sample;
  sample.index = 1;
  sample.name = "core.planner.plans";
  sample.kind = "counter";
  sample.value = 2.0;
  f.samples.push_back(sample);
  sample.index = 2;
  sample.name = "sim.run.live_queries";
  sample.kind = "gauge";
  sample.value = 8.0;
  f.samples.push_back(sample);
  sample.name = "gp.solver.solve_seconds";
  sample.kind = "histogram";
  sample.value = 3.0;
  f.samples.push_back(sample);

  SloAlert alert;
  alert.window = 1;
  alert.time = 3.5;
  alert.rule = 0;
  alert.fire = true;
  alert.value = 2.0;
  alert.threshold = 2.0;
  alert.consecutive = 2;
  alert.cause = 42;
  f.alerts.push_back(alert);
  SloAlert resolve;  // consecutive and cause at zero
  resolve.window = 2;
  resolve.time = 5.5;
  resolve.value = 1.0;
  resolve.threshold = 2.0;
  f.alerts.push_back(resolve);

  f.totals.windows = 3;
  SeriesTotals::WindowSums(f.totals, count_up);
  f.totals.alerts_fired = 1;
  f.totals.alerts_resolved = 1;
  f.has_totals = true;
  return f;
}

TEST(SeriesJsonTest, RoundTripIsExact) {
  const SeriesFile f = MakeSampleSeries();
  const std::string text = SeriesToJsonLines(f);
  Result<SeriesFile> parsed = ParseSeriesJsonLines(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, f);
  // Re-serializing the parse reproduces the bytes.
  EXPECT_EQ(SeriesToJsonLines(*parsed), text);
}

TEST(SeriesJsonTest, ReaderRejectsNonIntegersAndUnknownKeys) {
  std::vector<testing_util::IntField> fields = {
      {"slo_rule", "index", false}, {"slo_rule", "windows", false},
      {"window", "index", false},   {"window_dim", "index", false},
      {"window_dim", "id", true},   {"window_dim", "refreshes", false},
      {"window_dim", "recomputations", false},
      {"window_dim", "notifications", false},
      {"sample", "index", false},   {"alert", "index", false},
      {"alert", "rule", true},      {"alert", "consecutive", false},
      {"alert", "cause", false},    {"series_summary", "windows", false},
      {"series_summary", "alerts_fired", false},
      {"series_summary", "alerts_resolved", false},
  };
  const SeriesWindow w;
  auto window_int = [&fields](const char* key, const auto& m) {
    if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(m)>>) {
      fields.push_back({"window", key, false});
    }
  };
  SeriesWindow::MetricFields(w, window_int);
  const SeriesTotals t;
  auto total = [&fields](const char* key, int64_t) {
    fields.push_back({"series_summary", key, false});
  };
  SeriesTotals::WindowSums(t, total);
  testing_util::ExpectStrictRecords(
      SeriesToJsonLines(MakeSampleSeries()), fields,
      {"info", "slo_rule", "window", "window_dim", "sample", "alert",
       "series_summary"},
      [](const std::string& text) {
        return ParseSeriesJsonLines(text).status();
      });
}

TEST(SeriesJsonTest, ParserRejectsCorruption) {
  const std::string text = SeriesToJsonLines(MakeSampleSeries());
  // Truncated final line (a partial write must not parse).
  EXPECT_FALSE(
      ParseSeriesJsonLines(text.substr(0, text.size() - 5)).ok());
  // Unknown record type.
  EXPECT_FALSE(
      ParseSeriesJsonLines(text + "{\"type\":\"bogus\"}\n").ok());
  // Unknown per-window metric key. The name must be corrupted inside a
  // window record — the same name in a slo_rule record is deliberately
  // not catalog-checked at parse time (rules round-trip as written).
  std::string bad = text;
  const size_t window_at = bad.find("{\"type\":\"window\"");
  ASSERT_NE(window_at, std::string::npos);
  const size_t at = bad.find("sim.coordinator.refreshes", window_at);
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 3, "zim");
  EXPECT_FALSE(ParseSeriesJsonLines(bad).ok());
  // Duplicate trailing summary.
  const size_t sum_at = text.find("{\"type\":\"series_summary\"");
  ASSERT_NE(sum_at, std::string::npos);
  EXPECT_FALSE(ParseSeriesJsonLines(text + text.substr(sum_at)).ok());
  // Unknown SLO operator in a rule record.
  std::string bad_op = text;
  const size_t op_at = bad_op.find("\"op\":\">=\"");
  ASSERT_NE(op_at, std::string::npos);
  bad_op.replace(op_at, 9, "\"op\":\"!=\"");
  EXPECT_FALSE(ParseSeriesJsonLines(bad_op).ok());
}

// ---------------------------------------------------------------------
// Recorder: engine mode vs replay mode

TraceEvent Ev(uint64_t id, double time, TraceEventKind kind) {
  TraceEvent e;
  e.id = id;
  e.time = time;
  e.kind = kind;
  return e;
}

/// A 6-tick synthetic run: window width 2 s, fidelity stride 2, 3 initial
/// queries, one churn registration and one departure, refresh traffic
/// with queue waits, a violation, and one recompute. Event times follow
/// the simulator's invariant that everything emitted during tick u lands
/// in (u-1, u].
struct SyntheticRun {
  std::vector<std::vector<TraceEvent>> per_tick;  // [tick-1] -> events
  std::vector<int64_t> sampled;                   // live count per tick, 0 = skip
};

SyntheticRun MakeSyntheticRun() {
  SyntheticRun r;
  r.per_tick.resize(6);
  uint64_t id = 1;
  auto refresh = [&](double t, int32_t source, int32_t query, double wait) {
    TraceEvent e = Ev(id++, t, TraceEventKind::kRefreshArrived);
    e.source = source;
    e.query = query;
    e.b = wait;
    return e;
  };
  // Tick 1: two refreshes, a notification.
  r.per_tick[0].push_back(refresh(0.5, 0, -1, 0.01));
  r.per_tick[0].push_back(refresh(1.0, 1, -1, 0.25));
  {
    TraceEvent e = Ev(id++, 1.0, TraceEventKind::kUserNotification);
    e.query = 7;
    r.per_tick[0].push_back(e);
  }
  // Tick 2: a registration right at the window boundary (t = 2 folds
  // into window 0), then the fidelity sample sees 4 live queries.
  {
    TraceEvent e = Ev(id++, 2.0, TraceEventKind::kQueryRegister);
    e.query = 9;
    r.per_tick[1].push_back(e);
  }
  // Tick 3: a violation and the recompute it caused.
  {
    TraceEvent e = Ev(id++, 2.5, TraceEventKind::kFidelityViolation);
    e.query = 7;
    r.per_tick[2].push_back(e);
    TraceEvent s = Ev(id++, 2.5, TraceEventKind::kRecomputeStart);
    s.query = 7;
    r.per_tick[2].push_back(s);
    TraceEvent d = Ev(id++, 2.5, TraceEventKind::kRecomputeEnd);
    d.query = 7;
    d.flag = 1;
    r.per_tick[2].push_back(d);
  }
  // Tick 4: the churned query departs before the sample.
  {
    TraceEvent e = Ev(id++, 3.5, TraceEventKind::kQueryDeregister);
    e.query = 9;
    r.per_tick[3].push_back(e);
  }
  // Tick 5: one more refresh.
  r.per_tick[4].push_back(refresh(4.5, 0, -1, 0.02));
  // Tick 6: quiet.
  r.sampled = {0, 4, 0, 3, 0, 3};  // stride 2: ticks 2, 4, 6
  return r;
}

SeriesConfig SyntheticConfig(bool replay) {
  SeriesConfig cfg;
  cfg.window_ticks = 2;
  cfg.breakdown = true;
  SloRule rule;
  rule.metric = "sim.coordinator.refreshes";
  rule.op = SloOp::kGt;
  rule.threshold = 1.0;
  cfg.rules = {rule};
  cfg.derive_samples = replay;
  cfg.fidelity_stride = 2;
  return cfg;
}

TEST(SeriesRecorderTest, EngineAndReplayProduceIdenticalFiles) {
  const SyntheticRun run = MakeSyntheticRun();

  // Engine mode: the simulator's driving pattern — events, then the
  // tick's fidelity sample, then the tick-boundary close.
  SeriesRecorder engine(SyntheticConfig(/*replay=*/false));
  engine.SetInitialQueries(3);
  for (size_t tick = 1; tick <= run.per_tick.size(); ++tick) {
    for (const TraceEvent& e : run.per_tick[tick - 1]) engine.OnEvent(e);
    if (run.sampled[tick - 1] > 0) {
      engine.AddFidelitySamples(run.sampled[tick - 1]);
    }
    engine.OnTickEnd(static_cast<double>(tick));
  }
  engine.Finalize(6.0);

  // Replay mode: the same events as one flat stream; samples and window
  // closes are re-derived from timestamps alone.
  SeriesRecorder replay(SyntheticConfig(/*replay=*/true));
  replay.SetInitialQueries(3);
  for (const auto& tick_events : run.per_tick) {
    for (const TraceEvent& e : tick_events) replay.OnEvent(e);
  }
  replay.Finalize(6.0);

  EXPECT_EQ(replay.file(), engine.file());
  EXPECT_EQ(SeriesToJsonLines(replay.file()),
            SeriesToJsonLines(engine.file()));

  // Spot-check the shared derivation (window width 2, 3 windows).
  const SeriesFile& f = engine.file();
  ASSERT_EQ(f.windows.size(), 3u);
  EXPECT_EQ(f.windows[0].refreshes, 2);
  EXPECT_EQ(f.windows[0].registrations, 1);  // t=2 folds into window 0
  EXPECT_EQ(f.windows[0].samples, 4);        // tick-2 sample, 4 live
  EXPECT_EQ(f.windows[0].live_queries, 4);
  EXPECT_EQ(f.windows[1].violations, 1);
  EXPECT_EQ(f.windows[1].recomputations, 1);
  EXPECT_EQ(f.windows[1].deregistrations, 1);
  EXPECT_EQ(f.windows[1].samples, 3);
  EXPECT_EQ(f.windows[1].live_queries, 3);
  EXPECT_EQ(f.windows[2].refreshes, 1);
  EXPECT_EQ(f.windows[2].samples, 3);
  ASSERT_TRUE(f.has_totals);
  EXPECT_EQ(f.totals.refreshes, 3);
  EXPECT_EQ(f.totals.samples, 10);
  // The rule (refreshes > 1) breaches only in window 0: fire at its
  // close, resolve at window 1's close.
  ASSERT_EQ(f.alerts.size(), 2u);
  EXPECT_TRUE(f.alerts[0].fire);
  EXPECT_EQ(f.alerts[0].time, 2.0);
  EXPECT_FALSE(f.alerts[1].fire);
  EXPECT_EQ(f.alerts[1].time, 4.0);
  EXPECT_EQ(f.totals.alerts_fired, 1);
  EXPECT_EQ(f.totals.alerts_resolved, 1);
}

TEST(SeriesRecorderTest, ReplayIgnoresRecordedAlertEvents) {
  // A replay of a trace that already contains the engine's alert events
  // must fold to the identical series — alerts are outputs, not inputs.
  const SyntheticRun run = MakeSyntheticRun();
  SeriesRecorder plain(SyntheticConfig(/*replay=*/true));
  plain.SetInitialQueries(3);
  for (const auto& tick_events : run.per_tick) {
    for (const TraceEvent& e : tick_events) plain.OnEvent(e);
  }
  plain.Finalize(6.0);

  SeriesRecorder with_alerts(SyntheticConfig(/*replay=*/true));
  with_alerts.SetInitialQueries(3);
  for (size_t tick = 1; tick <= run.per_tick.size(); ++tick) {
    for (const TraceEvent& e : run.per_tick[tick - 1]) {
      with_alerts.OnEvent(e);
    }
    if (tick == 2) {
      TraceEvent fire = Ev(1000, 2.0, TraceEventKind::kAlertFire);
      fire.a = 2.0;
      fire.b = 1.0;
      fire.c = 1.0;
      with_alerts.OnEvent(fire);
    }
    if (tick == 4) {
      TraceEvent resolve = Ev(1001, 4.0, TraceEventKind::kAlertResolve);
      with_alerts.OnEvent(resolve);
    }
  }
  with_alerts.Finalize(6.0);
  EXPECT_EQ(with_alerts.file(), plain.file());
}

TEST(SeriesRecorderTest, TrailingPartialWindowClosesAtFinalize) {
  SeriesConfig cfg;
  cfg.window_ticks = 4;
  SeriesRecorder rec(cfg);
  rec.SetInitialQueries(1);
  for (int tick = 1; tick <= 6; ++tick) {
    if (tick == 5) {
      rec.OnEvent(Ev(1, 5.0, TraceEventKind::kUserNotification));
    }
    rec.OnTickEnd(static_cast<double>(tick));
  }
  rec.Finalize(6.0);
  const SeriesFile& f = rec.file();
  ASSERT_EQ(f.windows.size(), 2u);
  EXPECT_EQ(f.windows[0].end, 4.0);
  EXPECT_EQ(f.windows[1].start, 4.0);
  EXPECT_EQ(f.windows[1].end, 6.0);  // partial: 2 of 4 seconds
  EXPECT_EQ(f.windows[1].notifications, 1);
}

}  // namespace
}  // namespace polydab::obs
