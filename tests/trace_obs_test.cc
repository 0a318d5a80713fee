// Tests for the causal event tracing layer (obs/trace.h) and its offline
// replay verifier (obs/trace_check.h): kind-name round-trip, JSONL
// write -> parse exact inverse, TraceSink capture and streaming modes,
// cause-id linkage through a synthetic protocol episode, and rejection of
// deliberately corrupted traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_check.h"
#include "record_test_util.h"

namespace polydab::obs {
namespace {

TEST(TraceEventKindTest, NamesRoundTripForEveryKind) {
  for (int k = 0; k <= static_cast<int>(TraceEventKind::kPlannerReplan);
       ++k) {
    const TraceEventKind kind = static_cast<TraceEventKind>(k);
    TraceEventKind parsed;
    ASSERT_TRUE(ParseTraceEventKind(Name(kind), &parsed)) << Name(kind);
    EXPECT_EQ(parsed, kind);
  }
  TraceEventKind unused;
  EXPECT_FALSE(ParseTraceEventKind("no_such_kind", &unused));
  EXPECT_FALSE(ParseTraceEventKind("", &unused));
}

TraceFile MakeSampleFile() {
  TraceFile f;
  f.info["origin"] = "sim";
  f.info["method"] = "dual";
  f.info["config"] = "quoted \"text\" and a back\\slash";
  TraceQueryInfo q;
  q.query = 3;
  q.node = 2;
  q.shard = 1;
  q.qab = 0.125;
  q.items = {7, 11, 42};
  f.queries.push_back(q);
  TraceQueryInfo bare;  // node, shard and qab at their defaults
  bare.query = 4;
  f.queries.push_back(bare);
  // Every field off its default, so every key is on the line.
  TraceEvent e;
  e.id = 1;
  e.time = 0.1;  // not exactly representable: exercises the round-trip
  e.kind = TraceEventKind::kRefreshEmitted;
  e.node = 2;
  e.source = 5;
  e.item = 7;
  e.query = 3;
  e.part = 1;
  e.shard = 4;
  e.thread = 1;
  e.cause = 9;
  e.a = 3.141592653589793;
  e.b = 1e-300;
  e.c = 1e17;
  e.flag = 1;
  f.events.push_back(e);
  TraceEvent sparse;  // everything at its default except id/time/kind
  sparse.id = 2;
  sparse.time = 2.0;
  sparse.kind = TraceEventKind::kAaoSolve;
  f.events.push_back(sparse);
  TraceRunSummary s;
  s.node = 2;
  s.queries = 1;
  s.ticks = 500;
  s.fidelity_stride = 5;
  s.violation_tol = 1e-9;
  s.refreshes = 123;
  s.recomputations = 45;
  s.dab_change_messages = 67;
  s.user_notifications = 89;
  s.solver_failures = 1;
  s.mean_fidelity_loss_pct = 0.372915;
  f.summaries.push_back(s);
  s.node = 3;  // a fault-mode summary: the omit-at-zero counters set
  s.fault_drops = 4;
  s.retransmits = 5;
  s.duplicates_suppressed = 6;
  s.lease_expiries = 7;
  s.degraded_query_seconds = 12.5;
  f.summaries.push_back(s);
  return f;
}

TEST(TraceJsonTest, WriteParseIsExactInverse) {
  const TraceFile f = MakeSampleFile();
  const std::string text = TraceToJsonLines(f);
  auto parsed = ParseTraceJsonLines(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // operator== compares every field, doubles bitwise.
  EXPECT_EQ(parsed->info, f.info);
  EXPECT_EQ(parsed->queries, f.queries);
  EXPECT_EQ(parsed->events, f.events);
  EXPECT_EQ(parsed->summaries, f.summaries);
  // Re-serializing the parsed trace reproduces the bytes.
  EXPECT_EQ(TraceToJsonLines(*parsed), text);
}

TEST(TraceJsonTest, ReaderRejectsNonIntegersAndUnknownKeys) {
  const std::vector<testing_util::IntField> fields = {
      {"event", "id", false},
      {"event", "node", true},
      {"event", "source", true},
      {"event", "item", true},
      {"event", "query", true},
      {"event", "part", true},
      {"event", "shard", true},
      {"event", "thread", true},
      {"event", "cause", false},
      {"event", "flag", true},
      {"query_info", "query", true},
      {"query_info", "node", true},
      {"query_info", "shard", true},
      {"run_summary", "node", true},
      {"run_summary", "queries", false},
      {"run_summary", "ticks", false},
      {"run_summary", "fidelity_stride", false},
      {"run_summary", "refreshes", false},
      {"run_summary", "recomputations", false},
      {"run_summary", "dab_change_messages", false},
      {"run_summary", "user_notifications", false},
      {"run_summary", "solver_failures", false},
      // The first run_summary line omits the fault counters at zero.
  };
  testing_util::ExpectStrictRecords(
      TraceToJsonLines(MakeSampleFile()), fields,
      {"info", "query_info", "event", "run_summary"},
      [](const std::string& text) {
        return ParseTraceJsonLines(text).status();
      });
  // The fault counters, on a summary that carries them.
  TraceFile faulty = MakeSampleFile();
  faulty.summaries.erase(faulty.summaries.begin());
  testing_util::ExpectStrictRecords(
      TraceToJsonLines(faulty),
      {{"run_summary", "fault_drops", false},
       {"run_summary", "retransmits", false},
       {"run_summary", "duplicates_suppressed", false},
       {"run_summary", "lease_expiries", false}},
      {}, [](const std::string& text) {
        return ParseTraceJsonLines(text).status();
      });
}

TEST(TraceJsonTest, ParseRejectsCorruptInput) {
  EXPECT_FALSE(ParseTraceJsonLines("not json").ok());
  EXPECT_FALSE(ParseTraceJsonLines("{\"type\":\"bogus\"}").ok());
  // Unknown event kind: how truncated enum evolution surfaces.
  EXPECT_FALSE(ParseTraceJsonLines("{\"type\":\"event\",\"id\":1,\"t\":0,"
                                   "\"kind\":\"warp_drive\"}")
                   .ok());
  // Missing required field.
  EXPECT_FALSE(
      ParseTraceJsonLines("{\"type\":\"event\",\"id\":1,\"t\":0}").ok());
  // A truncated (half-written) last line.
  const std::string text = TraceToJsonLines(MakeSampleFile());
  EXPECT_FALSE(
      ParseTraceJsonLines(text.substr(0, text.size() - 10)).ok());
}

TEST(TraceJsonTest, ParseNamesLineOfTruncationAndErrors) {
  const std::string text = TraceToJsonLines(MakeSampleFile());
  const auto lines = std::count(text.begin(), text.end(), '\n');
  const std::string last_line = "line " + std::to_string(lines);

  // Partial write at EOF: even when only the final newline is missing
  // (the last record still parses), the writers always terminate lines,
  // so the parser must reject — naming the truncated line — rather than
  // silently accept a possibly-incomplete trace.
  auto missing_newline = ParseTraceJsonLines(text.substr(0, text.size() - 1));
  ASSERT_FALSE(missing_newline.ok());
  EXPECT_NE(missing_newline.status().message().find(last_line),
            std::string::npos)
      << missing_newline.status().ToString();
  EXPECT_NE(missing_newline.status().message().find("truncated"),
            std::string::npos);

  // Cut mid-record: same line named.
  auto mid_record = ParseTraceJsonLines(text.substr(0, text.size() - 10));
  ASSERT_FALSE(mid_record.ok());
  EXPECT_NE(mid_record.status().message().find(last_line),
            std::string::npos)
      << mid_record.status().ToString();

  // A malformed *interior* line is named too.
  std::string broken = text;
  const size_t first_newline = broken.find('\n');
  broken.insert(first_newline + 1, "{\"type\":\"bogus\"}\n");
  auto interior = ParseTraceJsonLines(broken);
  ASSERT_FALSE(interior.ok());
  EXPECT_NE(interior.status().message().find("line 2:"), std::string::npos)
      << interior.status().ToString();
}

TEST(TraceSinkTest, CaptureModeAssignsSequentialIds) {
  TraceSink sink;
  EXPECT_EQ(sink.emitted(), 0u);
  TraceEvent e;
  e.kind = TraceEventKind::kRefreshEmitted;
  const uint64_t first = sink.Emit(e);
  e.kind = TraceEventKind::kRefreshArrived;
  e.cause = first;
  const uint64_t second = sink.Emit(e);
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 2u);
  EXPECT_EQ(sink.emitted(), 2u);
  sink.SetInfo("origin", "test");
  const TraceFile f = sink.Collect();
  EXPECT_EQ(f.info.at("origin"), "test");
  ASSERT_EQ(f.events.size(), 2u);
  EXPECT_EQ(f.events[0].id, 1u);
  EXPECT_EQ(f.events[1].cause, 1u);
}

TEST(TraceSinkTest, CaptureModeGrowsPastCapacity) {
  TraceSink sink(/*capacity=*/4);
  for (int i = 0; i < 100; ++i) sink.Emit(TraceEvent{});
  EXPECT_EQ(sink.Collect().events.size(), 100u);
}

TEST(TraceSinkTest, LogicalClockStampsForClocklessLayers) {
  TraceSink sink;
  EXPECT_EQ(sink.now(), 0.0);
  sink.SetNow(17.25);
  EXPECT_EQ(sink.now(), 17.25);
}

TEST(TraceSinkTest, StreamingFlushesAndFinishes) {
  const std::string path = ::testing::TempDir() + "trace_stream_test.jsonl";
  {
    TraceSink sink(/*capacity=*/4);  // tiny: force several mid-run flushes
    ASSERT_TRUE(sink.StreamTo(path).ok());
    sink.SetInfo("origin", "test");
    for (uint64_t i = 1; i <= 10; ++i) {
      TraceEvent e;
      e.time = static_cast<double>(i);
      e.kind = TraceEventKind::kRefreshEmitted;
      e.item = static_cast<int32_t>(i);
      EXPECT_EQ(sink.Emit(e), i);
    }
    // Late metadata, set after the first segment already flushed, must
    // still reach the file.
    sink.SetInfo("late", "yes");
    TraceQueryInfo q;
    q.query = 0;
    q.qab = 1.0;
    q.items = {1};
    sink.AddQueryInfo(q);
    sink.AddRunSummary(TraceRunSummary{});
    ASSERT_TRUE(sink.Finish().ok());
    EXPECT_TRUE(sink.Finish().ok());  // idempotent
  }
  auto loaded = LoadTraceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->info.at("origin"), "test");
  EXPECT_EQ(loaded->info.at("late"), "yes");
  ASSERT_EQ(loaded->events.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(loaded->events[i].id, i + 1);
    EXPECT_EQ(loaded->events[i].item, static_cast<int32_t>(i + 1));
  }
  EXPECT_EQ(loaded->queries.size(), 1u);
  EXPECT_EQ(loaded->summaries.size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceSinkTest, StreamToUnwritablePathFails) {
  TraceSink sink;
  EXPECT_FALSE(sink.StreamTo("/no/such/dir/trace.jsonl").ok());
}

/// A minimal but fully consistent protocol episode: initial install, one
/// refresh that violates the secondary range, the recompute it causes, the
/// DAB change it ships, and two fidelity samples. Built through the sink
/// so the cause ids are the real assigned ones.
TraceFile MakeValidEpisode() {
  TraceSink sink;
  sink.SetInfo("origin", "sim");
  sink.SetInfo("method", "dual");
  sink.SetInfo("mu", "5");
  TraceQueryInfo qi;
  qi.query = 0;
  qi.node = -1;
  qi.qab = 2.0;
  qi.items = {7};
  sink.AddQueryInfo(qi);

  auto emit = [&sink](double t, TraceEventKind kind, uint64_t cause,
                      double a, double b, double c, int32_t item,
                      int32_t query, int32_t part, int32_t flag) {
    TraceEvent e;
    e.time = t;
    e.kind = kind;
    e.cause = cause;
    e.a = a;
    e.b = b;
    e.c = c;
    e.item = item;
    e.query = query;
    e.part = part;
    e.flag = flag;
    return sink.Emit(e);
  };

  emit(0.0, TraceEventKind::kPlannerPlan, 0, 0, 0, 0, -1, 0, -1, 1);
  // Initial install of a width-1 filter on item 7 (cause 0 at t=0).
  emit(0.0, TraceEventKind::kDabChangeInstalled, 0, 1.0, 0, 0, 7, -1, -1, 0);
  // Item 7 moves 0 -> 5, escaping the width-1 filter.
  const uint64_t em =
      emit(1.0, TraceEventKind::kRefreshEmitted, 0, 5.0, 1.0, 0.0, 7, -1,
           -1, 0);
  const uint64_t ar =
      emit(1.1, TraceEventKind::kRefreshArrived, em, 5.0, 0.0, 0, 7, -1,
           -1, 0);
  emit(1.1, TraceEventKind::kUserNotification, ar, 8.0, 0.0, 0, 7, 0, -1, 0);
  // |5.0 - 0.5| = 4.5 escapes the secondary DAB of 2.0 around anchor 0.5.
  const uint64_t vi =
      emit(1.1, TraceEventKind::kSecondaryViolation, ar, 5.0, 0.5, 2.0, 7,
           0, 0, 0);
  const uint64_t st =
      emit(1.1, TraceEventKind::kRecomputeStart, vi, 0, 0, 0, 7, 0, 0, 0);
  emit(1.1, TraceEventKind::kPlannerReplan, 0, 0, 0, 0, -1, 0, 0, 1);
  const uint64_t en =
      emit(1.1, TraceEventKind::kRecomputeEnd, st, 0, 0, 0, 7, 0, 0, 1);
  const uint64_t se =
      emit(1.1, TraceEventKind::kDabChangeSent, en, 2.0, 1.0, 0, 7, 0, 0,
           0);
  emit(1.2, TraceEventKind::kDabChangeInstalled, se, 2.0, 0, 0, 7, -1, -1,
       0);
  emit(2.0, TraceEventKind::kFidelityViolation, 0, 10.0, 5.0, 2.0, -1, 0,
       -1, 0);
  emit(3.0, TraceEventKind::kFidelityViolation, 0, 0.0, 5.0, 2.0, -1, 0,
       -1, 0);

  TraceRunSummary s;
  s.node = -1;
  s.queries = 1;
  s.ticks = 11;
  s.fidelity_stride = 1;
  s.violation_tol = 0.0;
  s.refreshes = 1;
  s.recomputations = 1;
  s.dab_change_messages = 1;
  s.user_notifications = 1;
  s.solver_failures = 0;
  // 2 violated samples * stride 1 over (11 - 1) ticks = 20% for the one
  // query.
  s.mean_fidelity_loss_pct = 20.0;
  sink.AddRunSummary(s);
  return sink.Collect();
}

TEST(TraceCheckTest, ValidEpisodePassesAllInvariants) {
  const TraceFile f = MakeValidEpisode();
  auto report = CheckTrace(f);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText(f);
  ASSERT_EQ(report->derived.size(), 1u);
  EXPECT_EQ(report->derived[0].refreshes, 1);
  EXPECT_EQ(report->derived[0].recomputations, 1);
  EXPECT_EQ(report->derived[0].dab_change_messages, 1);
  EXPECT_EQ(report->derived[0].user_notifications, 1);
  EXPECT_EQ(report->derived[0].solver_failures, 0);
  EXPECT_DOUBLE_EQ(report->derived[0].mean_fidelity_loss_pct, 20.0);
  // Cost attribution: 1 refresh + mu(5) * 1 recompute, rooted at item 7.
  ASSERT_EQ(report->queries.size(), 1u);
  EXPECT_EQ(report->queries[0].refreshes, 1);
  EXPECT_EQ(report->queries[0].recomputations, 1);
  EXPECT_DOUBLE_EQ(report->queries[0].cost, 6.0);
  ASSERT_EQ(report->queries[0].root_items.size(), 1u);
  EXPECT_EQ(report->queries[0].root_items[0].first, 7);
  EXPECT_EQ(report->queries[0].root_items[0].second, 1);
}

TEST(TraceCheckTest, EpisodeSurvivesJsonRoundTrip) {
  // The replay's FP comparisons are exact, so they must still hold after
  // a serialize -> parse cycle.
  auto parsed = ParseTraceJsonLines(TraceToJsonLines(MakeValidEpisode()));
  ASSERT_TRUE(parsed.ok());
  auto report = CheckTrace(*parsed);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToText(*parsed);
}

TraceEvent* FindKind(TraceFile* f, TraceEventKind kind) {
  for (TraceEvent& e : f->events) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

TEST(TraceCheckTest, RejectsViolationInsideSecondaryRange) {
  TraceFile f = MakeValidEpisode();
  // Widen the recorded secondary DAB so |a - b| no longer escapes it.
  FindKind(&f, TraceEventKind::kSecondaryViolation)->c = 10.0;
  auto report = CheckTrace(f);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(TraceCheckTest, RejectsRecomputeWithDanglingCause) {
  TraceFile f = MakeValidEpisode();
  FindKind(&f, TraceEventKind::kRecomputeStart)->cause = 9999;
  auto report = CheckTrace(f);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(TraceCheckTest, RejectsInstallWidthMismatch) {
  TraceFile f = MakeValidEpisode();
  // The second install (the one with a cause) claims a different width
  // than its send.
  for (TraceEvent& e : f.events) {
    if (e.kind == TraceEventKind::kDabChangeInstalled && e.cause != 0) {
      e.a = 99.0;
    }
  }
  auto report = CheckTrace(f);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(TraceCheckTest, RejectsEmissionInsideInstalledFilter) {
  TraceFile f = MakeValidEpisode();
  // Claim the push only moved by 0.5 against the width-1 filter.
  FindKind(&f, TraceEventKind::kRefreshEmitted)->a = 0.5;
  auto report = CheckTrace(f);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(TraceCheckTest, RejectsSummaryCounterMismatch) {
  TraceFile f = MakeValidEpisode();
  f.summaries[0].refreshes = 2;
  auto report = CheckTrace(f);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(TraceCheckTest, RejectsTraceWithoutSummary) {
  TraceFile f = MakeValidEpisode();
  f.summaries.clear();
  EXPECT_FALSE(CheckTrace(f).ok());
}

TEST(TraceCheckTest, MuOptionOverridesTraceInfo) {
  const TraceFile f = MakeValidEpisode();  // info carries mu=5
  TraceCheckOptions options;
  options.mu = 2.0;
  auto report = CheckTrace(f, options);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->mu, 2.0);
  ASSERT_EQ(report->queries.size(), 1u);
  EXPECT_DOUBLE_EQ(report->queries[0].cost, 3.0);  // 1 + 2 * 1
}

}  // namespace
}  // namespace polydab::obs
