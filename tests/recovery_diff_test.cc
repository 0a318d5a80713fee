// Crash-recovery differential harness (src/recovery/, docs/RECOVERY.md).
// The contract under test: crash a run at an arbitrary tick, restart it
// from the latest durable checkpoint plus the WAL, splice the two trace
// captures, and the result is *bit-identical* to a run that never
// crashed. Oracles, each proved for serial, 4-shard, 4-thread, chaos,
// churn and solve-memo configurations:
//
//  1. Byte identity: merged-and-stripped trace JSONL == the uninterrupted
//     oracle's (after the identical StripRecoveryEvents pass, which also
//     renumbers, and — for threaded runs — after canonicalizing the
//     merged whole; canonicalizing before the merge would destroy the id
//     alignment the splice depends on).
//  2. Metrics identity: the restarted run's SimMetrics equal the
//     oracle's field for field, bitwise on the floating-point fields.
//  3. Replay validity: the *unstripped* merged trace — recovery events
//     included — keeps obs::CheckTrace green, so checkpoint_begin/
//     checkpoint_end/coord_crash/recovery_replay obey the causal
//     invariants too.
//  4. Purity: a run with the recovery knobs absent emits a trace with no
//     recovery event kinds at all, and StripRecoveryEvents is the
//     identity on it (modulo renumbering, which is a no-op on a
//     contiguous id space).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_canon.h"
#include "obs/trace_check.h"
#include "recovery/checkpoint.h"
#include "recovery/recovery.h"
#include "recovery/wal.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/churn_gen.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"
#include "workload/tick_source.h"

namespace polydab::sim {
namespace {

constexpr int kTicks = 240;
constexpr int kCkptInterval = 25;
constexpr int kCrashTick = 77;

/// Same workload family as the other differential harnesses, sized so
/// the crash tick sits two checkpoints deep with a replay span of
/// kCrashTick - 75 = 2 logged rows plus a long post-crash tail.
class RecoveryDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    workload::TraceSetConfig tc;
    tc.num_items = 24;
    tc.num_ticks = kTicks;
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

  SimConfig Base() const {
    SimConfig c;
    c.planner.method = core::AssignmentMethod::kDualDab;
    c.planner.dual.mu = 5.0;
    c.seed = 3;
    return c;
  }

  /// Fresh churn service for one engine invocation. Every invocation of
  /// a churned mode rebuilds it from the same seed — exactly what the
  /// CLI does on restart — and the engine checkpoint carries the
  /// service's cursor/table state across the crash.
  std::unique_ptr<svc::QueryService> MakeService() const {
    workload::ChurnConfig cc;
    cc.arrival_rate = 0.3;
    cc.mean_lifetime_s = 120.0;
    cc.modify_prob = 0.1;
    cc.zipf_s = 1.0;
    cc.horizon_s = kTicks;
    cc.num_items = 24;
    Rng churn_rng(Base().seed + 1);
    auto schedule =
        workload::GenerateChurnSchedule(cc, traces_.Snapshot(0), &churn_rng);
    EXPECT_TRUE(schedule.ok()) << schedule.status().ToString();
    svc::AdmissionConfig ac;
    ac.policy = svc::AdmissionConfig::Policy::kDegrade;
    return std::make_unique<svc::QueryService>(
        ac, std::move(*schedule), nullptr, PlanMaintenance::kIncremental);
  }

  /// One engine invocation: attach a sink (and a fresh service when
  /// churned), run, collect. Returns false on simulation failure.
  bool RunOnce(SimConfig config, bool churn, int skip_rows,
               obs::TraceFile* trace, SimMetrics* metrics) {
    obs::TraceSink sink;
    config.trace = &sink;
    std::unique_ptr<svc::QueryService> service;
    if (churn) {
      service = MakeService();
      config.service = service.get();
    }
    Result<SimMetrics> m = Status::Internal("unset");
    if (skip_rows > 0) {
      workload::TraceSetTickSource src(&traces_);
      Vector row;
      for (int t = 0; t < skip_rows; ++t) {
        auto got = src.Next(&row);
        EXPECT_TRUE(got.ok() && *got) << "source shorter than crash span";
        if (!got.ok() || !*got) return false;
      }
      m = RunSimulation(queries_, src, rates_, config);
    } else {
      m = RunSimulation(queries_, traces_, rates_, config);
    }
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok()) return false;
    *metrics = *m;
    *trace = sink.Collect();
    return true;
  }

  /// The tool's merge-trace splice, verbatim: crashed events below the
  /// checkpoint's resume id + every restart event, queries concatenated
  /// in registration order, summaries from the completed side.
  static obs::TraceFile Merge(obs::TraceFile crashed, obs::TraceFile restart,
                              uint64_t resume_id) {
    obs::TraceFile merged;
    merged.info = crashed.info;
    for (const auto& [key, value] : restart.info) merged.info[key] = value;
    merged.queries = std::move(crashed.queries);
    merged.queries.insert(merged.queries.end(), restart.queries.begin(),
                          restart.queries.end());
    for (obs::TraceEvent& e : crashed.events) {
      if (e.id < resume_id) merged.events.push_back(std::move(e));
    }
    merged.events.insert(merged.events.end(), restart.events.begin(),
                         restart.events.end());
    std::stable_sort(merged.events.begin(), merged.events.end(),
                     [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                       return a.id < b.id;
                     });
    merged.summaries = std::move(restart.summaries);
    return merged;
  }

  /// The full crash + restart + merge procedure against the oracle for
  /// one mode. \p base carries everything but the recovery knobs.
  void CheckMode(const std::string& mode, const SimConfig& base,
                 bool churn) {
    SCOPED_TRACE("mode=" + mode);
    const std::string dir = ::testing::TempDir();
    const std::string ckpt_path = dir + "recovery_diff_" + mode + ".ckpt";
    const std::string wal_path = dir + "recovery_diff_" + mode + ".wal";
    std::remove(ckpt_path.c_str());
    std::remove(wal_path.c_str());

    // Uninterrupted oracle.
    obs::TraceFile oracle;
    SimMetrics oracle_metrics;
    ASSERT_TRUE(RunOnce(base, churn, 0, &oracle, &oracle_metrics));
    if (base.threads > 0) {
      ASSERT_TRUE(obs::CanonicalizeThreadedTrace(&oracle).ok());
    }

    // Crashed invocation: checkpoints at the cadence, WAL of every
    // consumed row, injector fires at the top of kCrashTick.
    recovery::RecoveryConfig crash_rc;
    crash_rc.checkpoint_path = ckpt_path;
    crash_rc.wal_path = wal_path;
    crash_rc.interval_s = kCkptInterval;
    crash_rc.crash_at_tick = kCrashTick;
    SimConfig crashed_cfg = base;
    crashed_cfg.recovery = &crash_rc;
    obs::TraceFile crashed;
    SimMetrics crashed_metrics;
    ASSERT_TRUE(RunOnce(crashed_cfg, churn, 0, &crashed, &crashed_metrics));
    ASSERT_TRUE(crash_rc.crashed);
    ASSERT_NE(crash_rc.crash_event_id, 0u);

    // Restart: latest complete snapshot + parsed WAL; the engine replays
    // the logged rows itself, the live source is positioned past every
    // row the crashed invocation consumed (kCrashTick of them: the
    // tick-0 snapshot plus ticks 1..kCrashTick-1).
    recovery::CheckpointState ckpt;
    ASSERT_TRUE(recovery::LoadLatestCheckpoint(ckpt_path, &ckpt).ok());
    EXPECT_EQ(ckpt.tick, (kCrashTick / kCkptInterval) * kCkptInterval);
    std::vector<recovery::WalRecord> wal;
    ASSERT_TRUE(recovery::LoadWal(wal_path, &wal).ok());
    const recovery::WalRecord* marker = recovery::LastCrashMarker(wal);
    ASSERT_NE(marker, nullptr);
    EXPECT_EQ(marker->tick, kCrashTick);
    EXPECT_EQ(marker->event_id, crash_rc.crash_event_id);
    recovery::RecoveryConfig restart_rc;
    restart_rc.checkpoint_path = ckpt_path;
    restart_rc.wal_path = wal_path;
    restart_rc.interval_s = kCkptInterval;
    restart_rc.restart = &ckpt;
    restart_rc.wal = &wal;
    SimConfig restart_cfg = base;
    restart_cfg.recovery = &restart_rc;
    obs::TraceFile restarted;
    SimMetrics restart_metrics;
    ASSERT_TRUE(
        RunOnce(restart_cfg, churn, marker->tick, &restarted,
                &restart_metrics));
    EXPECT_FALSE(restart_rc.crashed);

    // Oracle 2: the restarted run's final counters equal the oracle's,
    // bitwise on the floating-point fields.
    EXPECT_EQ(restart_metrics.refreshes, oracle_metrics.refreshes);
    EXPECT_EQ(restart_metrics.recomputations, oracle_metrics.recomputations);
    EXPECT_EQ(restart_metrics.dab_change_messages,
              oracle_metrics.dab_change_messages);
    EXPECT_EQ(restart_metrics.user_notifications,
              oracle_metrics.user_notifications);
    EXPECT_EQ(restart_metrics.solver_failures, oracle_metrics.solver_failures);
    EXPECT_EQ(restart_metrics.mean_fidelity_loss_pct,
              oracle_metrics.mean_fidelity_loss_pct);
    EXPECT_EQ(restart_metrics.fault_drops, oracle_metrics.fault_drops);
    EXPECT_EQ(restart_metrics.retransmits, oracle_metrics.retransmits);
    EXPECT_EQ(restart_metrics.duplicates_suppressed,
              oracle_metrics.duplicates_suppressed);
    EXPECT_EQ(restart_metrics.lease_expiries, oracle_metrics.lease_expiries);
    EXPECT_EQ(restart_metrics.degraded_query_seconds,
              oracle_metrics.degraded_query_seconds);

    // Merge, canonicalize the whole (threaded runs only), then: oracle 3
    // — the unstripped merged trace replays green, recovery events and
    // all.
    obs::TraceFile merged =
        Merge(std::move(crashed), std::move(restarted), ckpt.trace_next_id);
    if (base.threads > 0) {
      ASSERT_TRUE(obs::CanonicalizeThreadedTrace(&merged).ok());
    }
    Result<obs::TraceCheckReport> checked =
        obs::CheckTrace(merged, obs::TraceCheckOptions{});
    ASSERT_TRUE(checked.ok()) << checked.status().ToString();
    EXPECT_TRUE(checked->ok()) << checked->ToText(merged);

    // Oracle 1: byte identity after the identical strip pass on both.
    ASSERT_TRUE(obs::StripRecoveryEvents(&merged).ok());
    ASSERT_TRUE(obs::StripRecoveryEvents(&oracle).ok());
    EXPECT_EQ(obs::TraceToJsonLines(merged), obs::TraceToJsonLines(oracle));

    std::remove(ckpt_path.c_str());
    std::remove(wal_path.c_str());
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

TEST_F(RecoveryDiffTest, SerialCrashRestartIsByteIdentical) {
  CheckMode("serial", Base(), /*churn=*/false);
}

TEST_F(RecoveryDiffTest, ShardedCrashRestartIsByteIdentical) {
  SimConfig c = Base();
  c.coord_shards = 4;
  c.shard_policy = ShardPolicy::kQueryHash;
  CheckMode("shards", c, /*churn=*/false);
}

TEST_F(RecoveryDiffTest, ThreadedCrashRestartIsByteIdentical) {
  SimConfig c = Base();
  c.planner.method = core::AssignmentMethod::kOptimalRefresh;
  c.coord_shards = 4;
  c.shard_policy = ShardPolicy::kQueryHash;
  c.threads = 4;
  CheckMode("threads", c, /*churn=*/false);
}

TEST_F(RecoveryDiffTest, ChaosCrashRestartIsByteIdentical) {
  SimConfig c = Base();
  c.fault.drop_prob = 0.1;
  c.fault.crash_prob = 0.005;
  CheckMode("chaos", c, /*churn=*/false);
}

TEST_F(RecoveryDiffTest, ChurnCrashRestartIsByteIdentical) {
  SimConfig c = Base();
  c.coord_shards = 3;
  c.shard_policy = ShardPolicy::kQueryHash;
  CheckMode("churn", c, /*churn=*/true);
}

TEST_F(RecoveryDiffTest, SolveCacheCrashRestartIsByteIdentical) {
  // The memo is not checkpointed: the restart begins with a cold cache.
  // Hits are bitwise-verified and replay their solver stats, so only the
  // engine's own hit/miss counters can differ from the oracle.
  SimConfig c = Base();
  c.solve_cache = 256;
  CheckMode("cache_serial", c, /*churn=*/false);
  c.coord_shards = 4;
  c.shard_policy = ShardPolicy::kQueryHash;
  CheckMode("cache_shards", c, /*churn=*/false);
}

TEST_F(RecoveryDiffTest, KnobFreeRunsCarryNoRecoveryArtifacts) {
  obs::TraceFile trace;
  SimMetrics metrics;
  ASSERT_TRUE(RunOnce(Base(), /*churn=*/false, 0, &trace, &metrics));
  for (const obs::TraceEvent& e : trace.events) {
    ASSERT_NE(e.kind, obs::TraceEventKind::kCheckpointBegin);
    ASSERT_NE(e.kind, obs::TraceEventKind::kCheckpointEnd);
    ASSERT_NE(e.kind, obs::TraceEventKind::kCoordCrash);
    ASSERT_NE(e.kind, obs::TraceEventKind::kRecoveryReplay);
  }
  const std::string before = obs::TraceToJsonLines(trace);
  ASSERT_TRUE(obs::StripRecoveryEvents(&trace).ok());
  EXPECT_EQ(obs::TraceToJsonLines(trace), before);
}

}  // namespace
}  // namespace polydab::sim
