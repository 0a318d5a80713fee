// Tests for the cost-attribution flamegraph folder (obs/trace_fold.h):
// the conservation property across planner methods x seeds x shard
// counts (folded per-class counts == the SimMetrics the simulation
// returned == the totals the replay re-derives), golden folded output
// for a hand-built deterministic trace, group-by frame ordering, sharded
// barrier attribution, and detection of a trace whose recorded summary
// disagrees with its events.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_check.h"
#include "obs/trace_fold.h"
#include "sim/simulation.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"
#include "workload/trace.h"

namespace polydab {
namespace {

using obs::FoldGroupBy;
using obs::FoldTrace;
using obs::TraceEvent;
using obs::TraceEventKind;
using obs::TraceFile;
using obs::TraceFoldOptions;
using obs::TraceFoldReport;
using obs::TraceQueryInfo;
using obs::TraceRunSummary;
using obs::TraceSink;

TEST(FoldGroupByTest, NamesRoundTrip) {
  for (FoldGroupBy g :
       {FoldGroupBy::kQuery, FoldGroupBy::kItem, FoldGroupBy::kLane}) {
    FoldGroupBy parsed;
    ASSERT_TRUE(obs::ParseFoldGroupBy(obs::Name(g), &parsed));
    EXPECT_EQ(parsed, g);
  }
  FoldGroupBy parsed;
  EXPECT_FALSE(obs::ParseFoldGroupBy("shard", &parsed));
  EXPECT_FALSE(obs::ParseFoldGroupBy("", &parsed));
}

/// A serial dual-DAB episode with one owned item chain, one DAB ship to a
/// sibling item, and one arrival no query_info covers. All values are
/// hand-checkable against the golden folded output below.
TraceFile MakeSerialEpisode() {
  TraceFile f;
  TraceQueryInfo q;
  q.query = 7;
  q.node = -1;
  q.items = {3, 4};
  f.queries.push_back(q);

  auto ev = [&f](uint64_t id, TraceEventKind kind, int32_t item,
                 int32_t query, uint64_t cause) {
    TraceEvent e;
    e.id = id;
    e.time = static_cast<double>(id);
    e.kind = kind;
    e.item = item;
    e.query = query;
    e.cause = cause;
    if (kind == TraceEventKind::kRecomputeEnd) e.flag = 1;
    f.events.push_back(e);
  };
  ev(1, TraceEventKind::kRefreshArrived, 3, -1, 0);
  ev(2, TraceEventKind::kSecondaryViolation, 3, 7, 1);
  ev(3, TraceEventKind::kRecomputeStart, 3, 7, 2);
  ev(4, TraceEventKind::kRecomputeEnd, 3, 7, 3);
  ev(5, TraceEventKind::kDabChangeSent, 4, 7, 4);
  ev(6, TraceEventKind::kUserNotification, 3, 7, 1);
  ev(7, TraceEventKind::kRefreshArrived, 9, -1, 0);  // unowned item

  TraceRunSummary s;
  s.node = -1;
  s.refreshes = 2;
  s.recomputations = 1;
  s.dab_change_messages = 1;
  s.user_notifications = 1;
  f.summary = s;
  return f;
}

TEST(TraceFoldTest, GoldenFoldedOutputForHandBuiltEpisode) {
  const TraceFile f = MakeSerialEpisode();
  auto report = FoldTrace(f);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
  EXPECT_EQ(report->mu, 5.0);  // no mu info key -> the paper's default
  EXPECT_FALSE(report->sharded);

  // Lexicographic stack order; recomputes weighted mu = 5, everything
  // else 1; the unowned arrival lands in q_unattributed.
  EXPECT_EQ(report->ToFolded(),
            "q7;i3;refresh 1\n"
            "q7;i3;refresh;notification 1\n"
            "q7;i3;refresh;violation;recompute 5\n"
            "q7;i4;refresh;violation;recompute;dab_change 1\n"
            "q_unattributed;i9;refresh 1\n");

  // Per-query attribution: the unattributed bucket keys -1.
  ASSERT_EQ(report->by_query.size(), 2u);
  EXPECT_EQ(report->by_query[0].key, -1);
  EXPECT_EQ(report->by_query[0].refreshes, 1);
  EXPECT_EQ(report->by_query[0].cost, 1.0);
  EXPECT_EQ(report->by_query[1].key, 7);
  EXPECT_EQ(report->by_query[1].refreshes, 1);
  EXPECT_EQ(report->by_query[1].recomputations, 1);
  EXPECT_EQ(report->by_query[1].dab_changes, 1);
  EXPECT_EQ(report->by_query[1].notifications, 1);
  EXPECT_EQ(report->by_query[1].cost, 1.0 + 5.0 * 1.0);

  // Per-item: the recompute's cost lands on its root-cause item 3; the
  // DAB ship lands on the shipped item 4.
  ASSERT_EQ(report->by_item.size(), 3u);
  EXPECT_EQ(report->by_item[0].key, 3);
  EXPECT_EQ(report->by_item[0].cost, 1.0 + 5.0 * 1.0);
  EXPECT_EQ(report->by_item[1].key, 4);
  EXPECT_EQ(report->by_item[1].dab_changes, 1);
  EXPECT_EQ(report->by_item[2].key, 9);

  // Serial trace: one lane bucket, no lane frames.
  ASSERT_EQ(report->by_lane.size(), 1u);
  EXPECT_EQ(report->by_lane[0].key, -1);

  // The JSON rendering carries one line per stack plus info/attribution/
  // totals records.
  const std::string json = report->ToJson();
  EXPECT_NE(json.find("\"type\":\"fold_info\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"totals\""), std::string::npos);
  EXPECT_NE(json.find("q7;i3;refresh;violation;recompute"),
            std::string::npos);
}

TEST(TraceFoldTest, GroupByReordersIdentityFrames) {
  const TraceFile f = MakeSerialEpisode();
  TraceFoldOptions by_item;
  by_item.group_by = FoldGroupBy::kItem;
  auto report = FoldTrace(f, by_item);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToText();
  EXPECT_EQ(report->ToFolded(),
            "i3;q7;refresh 1\n"
            "i3;q7;refresh;notification 1\n"
            "i3;q7;refresh;violation;recompute 5\n"
            "i4;q7;refresh;violation;recompute;dab_change 1\n"
            "i9;q_unattributed;refresh 1\n");

  // The attribution tables do not depend on the frame order.
  auto base = FoldTrace(f);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(report->attributed.refreshes, base->attributed.refreshes);
  EXPECT_EQ(report->attributed.recomputations,
            base->attributed.recomputations);
  EXPECT_EQ(report->by_query.size(), base->by_query.size());
}

TEST(TraceFoldTest, ExplicitMuOverridesTraceInfo) {
  TraceFile f = MakeSerialEpisode();
  f.info["mu"] = "2";
  auto from_info = FoldTrace(f);
  ASSERT_TRUE(from_info.ok());
  EXPECT_EQ(from_info->mu, 2.0);
  EXPECT_NE(from_info->ToFolded().find("violation;recompute 2\n"),
            std::string::npos);

  TraceFoldOptions opt;
  opt.mu = 3.0;
  auto from_option = FoldTrace(f, opt);
  ASSERT_TRUE(from_option.ok());
  EXPECT_EQ(from_option->mu, 3.0);
}

/// A two-lane trace: a lane-pinned single-DAB chain on lane 0, an
/// AAO-caused recompute and DAB ship on lane 1, an EQI-merge barrier
/// attributed to the merging query, and the global AAO barrier (q_all).
TraceFile MakeShardedEpisode() {
  TraceFile f;
  f.info["coord_shards"] = "2";
  TraceQueryInfo q1;
  q1.query = 1;
  q1.node = -1;
  q1.shard = 0;
  q1.items = {1};
  f.queries.push_back(q1);
  TraceQueryInfo q2 = q1;
  q2.query = 2;
  q2.shard = 1;
  q2.items = {2};
  f.queries.push_back(q2);

  auto ev = [&f](uint64_t id, TraceEventKind kind, int32_t item,
                 int32_t query, int32_t shard, uint64_t cause, double b) {
    TraceEvent e;
    e.id = id;
    e.time = static_cast<double>(id);
    e.kind = kind;
    e.item = item;
    e.query = query;
    e.shard = shard;
    e.cause = cause;
    e.b = b;
    if (kind == TraceEventKind::kRecomputeEnd ||
        kind == TraceEventKind::kAaoSolve) {
      e.flag = 1;
    }
    f.events.push_back(e);
  };
  ev(1, TraceEventKind::kRefreshArrived, 1, -1, 0, 0, 0.0);
  ev(2, TraceEventKind::kRecomputeStart, 1, 1, 0, 1, 0.0);
  ev(3, TraceEventKind::kRecomputeEnd, 1, 1, 0, 2, 0.0);
  // EQI-merge barrier: joins 2 lanes, caused by the recompute end; the
  // simulator stamps no shard on barriers.
  ev(4, TraceEventKind::kShardBarrier, 1, -1, -1, 3, 2.0);
  ev(5, TraceEventKind::kAaoSolve, -1, -1, -1, 0, 0.0);
  // Global AAO barrier: item -1, belongs to every query.
  ev(6, TraceEventKind::kShardBarrier, -1, -1, -1, 5, 2.0);
  ev(7, TraceEventKind::kRecomputeStart, -1, 2, 1, 5, 0.0);
  ev(8, TraceEventKind::kDabChangeSent, 2, 2, 1, 5, 0.0);

  TraceRunSummary s;
  s.node = -1;
  s.refreshes = 1;
  s.recomputations = 2;
  s.dab_change_messages = 1;
  s.user_notifications = 0;
  f.summary = s;
  return f;
}

TEST(TraceFoldTest, ShardedBarrierAttribution) {
  const TraceFile f = MakeShardedEpisode();
  auto report = FoldTrace(f);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
  EXPECT_TRUE(report->sharded);
  EXPECT_EQ(report->barrier_events, 2);

  EXPECT_EQ(report->ToFolded(),
            "q1;i1;L0;refresh 1\n"
            "q1;i1;L0;refresh;recompute 5\n"
            "q1;i1;L_all;refresh;recompute;shard_barrier 2\n"
            "q2;L1;aao;recompute 5\n"
            "q2;i2;L1;aao;dab_change 1\n"
            "q_all;L_all;aao;shard_barrier 2\n");

  // Barriers are synchronization, not §III messages: they do not enter
  // the conserved per-class counts.
  EXPECT_EQ(report->attributed.refreshes, 1);
  EXPECT_EQ(report->attributed.recomputations, 2);
  EXPECT_EQ(report->attributed.dab_change_messages, 1);
  EXPECT_EQ(report->attributed.user_notifications, 0);

  // The merge barrier lands on the merging query's row; the global one
  // on the -1 bucket. Neither is lane-pinned.
  ASSERT_EQ(report->by_lane.size(), 3u);
  EXPECT_EQ(report->by_lane[0].key, -1);
  EXPECT_EQ(report->by_lane[0].barriers, 2);
  EXPECT_EQ(report->by_lane[1].key, 0);
  EXPECT_EQ(report->by_lane[1].refreshes, 1);
  EXPECT_EQ(report->by_lane[1].recomputations, 1);
  EXPECT_EQ(report->by_lane[2].key, 1);
  EXPECT_EQ(report->by_lane[2].recomputations, 1);
  EXPECT_EQ(report->by_lane[2].dab_changes, 1);

  bool saw_q1 = false;
  for (const auto& row : report->by_query) {
    if (row.key == 1) {
      saw_q1 = true;
      EXPECT_EQ(row.barriers, 1);
    }
  }
  EXPECT_TRUE(saw_q1);
}

TEST(TraceFoldTest, DetectsSummaryDisagreement) {
  TraceFile f = MakeSerialEpisode();
  f.summary->refreshes = 999;  // recorded totals now lie
  auto report = FoldTrace(f);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  ASSERT_FALSE(report->conservation_failures.empty());
  EXPECT_NE(report->conservation_failures[0].find("refreshes"),
            std::string::npos);
  EXPECT_NE(report->ToText().find("FAIL"), std::string::npos);
}

/// End-to-end conservation: fold real simulation traces and demand the
/// folded per-class counts equal both the SimMetrics the run returned and
/// the totals the replay re-derives — across methods, seeds and shard
/// counts, sharded AAO included.
class FoldConservationTest : public ::testing::Test {
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
    queries_ = *workload::GeneratePortfolioQueries(6, qc,
                                                   traces_.Snapshot(0), &rng);
  }

  void CheckConservation(core::AssignmentMethod method, uint64_t seed,
                         int shards, double aao, const std::string& label) {
    sim::SimConfig c;
    c.planner.method = method;
    c.seed = seed;
    c.coord_shards = shards;
    c.shard_policy = sim::ShardPolicy::kQueryHash;
    c.aao_period_s = aao;
    TraceSink sink;
    c.trace = &sink;
    auto m = sim::RunSimulation(queries_, traces_, rates_, c);
    ASSERT_TRUE(m.ok()) << label << ": " << m.status().ToString();

    const TraceFile trace = sink.Collect();
    for (FoldGroupBy group_by :
         {FoldGroupBy::kQuery, FoldGroupBy::kItem, FoldGroupBy::kLane}) {
      TraceFoldOptions opt;
      opt.group_by = group_by;
      auto report = FoldTrace(trace, opt);
      ASSERT_TRUE(report.ok()) << label;
      EXPECT_TRUE(report->ok()) << label << "\n" << report->ToText();

      // Folded counts == the metrics the simulation itself returned.
      EXPECT_EQ(report->attributed.refreshes, m->refreshes) << label;
      EXPECT_EQ(report->attributed.recomputations, m->recomputations)
          << label;
      EXPECT_EQ(report->attributed.dab_change_messages,
                m->dab_change_messages)
          << label;
      EXPECT_EQ(report->attributed.user_notifications,
                m->user_notifications)
          << label;

      // ...and == the totals the replay re-derives from the raw events
      // (the same helper trace_check uses).
      const obs::TraceDerivedStats derived = obs::DeriveTotalStats(trace);
      EXPECT_EQ(report->attributed.refreshes, derived.refreshes) << label;
      EXPECT_EQ(report->attributed.recomputations, derived.recomputations)
          << label;

      // Every message-bearing event folded into exactly one stack.
      int64_t stack_count = 0;
      for (const auto& s : report->stacks) stack_count += s.count;
      EXPECT_EQ(stack_count, report->attributed.refreshes +
                                 report->attributed.recomputations +
                                 report->attributed.dab_change_messages +
                                 report->attributed.user_notifications +
                                 report->barrier_events)
          << label;
    }
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

TEST_F(FoldConservationTest, MethodsBySeedsSerial) {
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab,
        core::AssignmentMethod::kOptimalRefresh}) {
    for (uint64_t seed : {3, 11}) {
      CheckConservation(method, seed, 1, 0.0,
                        std::string(core::Name(method)) + "/s" +
                            std::to_string(seed) + "/serial");
    }
  }
}

TEST_F(FoldConservationTest, ShardCounts) {
  for (int shards : {2, 3}) {
    CheckConservation(core::AssignmentMethod::kDualDab, 3, shards, 0.0,
                      "dual/shards" + std::to_string(shards));
  }
}

TEST_F(FoldConservationTest, ShardedAao) {
  CheckConservation(core::AssignmentMethod::kDualDab, 3, 4, 60.0,
                    "dual/shards4/aao60");
}

}  // namespace
}  // namespace polydab
