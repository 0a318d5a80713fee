// Chaos differential harness for the fault-injected push protocol
// (sim/fault_model.h, docs/ROBUSTNESS.md). Oracles:
//
//  1. Null-fault purity: with the default (inactive) FaultConfig the
//     simulator must emit traces carrying no fault artifact whatsoever —
//     no fault_config info key, no fault event kinds, no sequence stamps,
//     zeroed run-summary fault fields — for every planner method x shard
//     count. Together with coord_shard_diff_test's serial goldens (which
//     run the very same binary), this pins the fault layer's
//     zero-overhead contract bit for bit.
//  2. Seeded chaos replays byte-identically: injection draws come from a
//     dedicated RNG stream forked from the run seed, so two runs of one
//     chaos config must produce identical trace JSONL and metrics.
//  3. Trace replay: every chaos run is verified by obs::CheckTrace — the
//     reliability invariants of trace_check.h (seq/ack/retransmit
//     chains, crash windows, lease bookkeeping, degrade/recover state
//     machine) plus the exact re-derivation of every SimMetrics field,
//     fault counters included.
//  4. Fidelity accounting: under zero network delay and a failure-free
//     solver, a query's QAB can only be violated because a fault got in
//     the way — so every fidelity violation must be attributed to a
//     concrete fault event or an already-degraded query (flag != 0).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "sim/simulation.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::sim {
namespace {

bool IsFaultKind(obs::TraceEventKind kind) {
  switch (kind) {
    case obs::TraceEventKind::kFaultDrop:
    case obs::TraceEventKind::kRetransmit:
    case obs::TraceEventKind::kAck:
    case obs::TraceEventKind::kDupSuppressed:
    case obs::TraceEventKind::kHeartbeat:
    case obs::TraceEventKind::kCrash:
    case obs::TraceEventKind::kLeaseExpire:
    case obs::TraceEventKind::kDegrade:
    case obs::TraceEventKind::kRecover:
    case obs::TraceEventKind::kLaneStall:
      return true;
    default:
      return false;
  }
}

/// Same workload shape as coord_shard_diff_test, scaled down a little:
/// chaos runs emit far more events per tick.
class ChaosDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    workload::TraceSetConfig tc;
    tc.num_items = 24;
    tc.num_ticks = 400;
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

  SimConfig Config(core::AssignmentMethod method, uint64_t seed) const {
    SimConfig c;
    c.planner.method = method;
    c.planner.dual.mu = 5.0;
    c.seed = seed;
    return c;
  }

  /// A config with every fault class firing often enough to matter on a
  /// 400-tick run, and protocol timers short enough to lapse leases.
  static FaultConfig Chaos() {
    FaultConfig f;
    f.drop_prob = 0.08;
    f.dup_prob = 0.05;
    f.reorder_prob = 0.05;
    f.delay_spike_prob = 0.02;
    f.crash_prob = 0.003;
    f.crash_recovery_s = 25.0;
    f.stall_prob = 0.01;
    f.retx_timeout_s = 1.0;
    f.heartbeat_s = 4.0;
    f.lease_s = 8.0;
    return f;
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

TEST_F(ChaosDiffTest, NullFaultTracesCarryNoFaultArtifacts) {
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab,
        core::AssignmentMethod::kOptimalRefresh,
        core::AssignmentMethod::kWsDab}) {
    for (int shards : {1, 2, 4}) {
      obs::TraceSink sink;
      SimConfig c = Config(method, 3);
      c.fault = FaultConfig{};  // explicit: the inactive default
      c.coord_shards = shards;
      c.trace = &sink;
      auto m = RunSimulation(queries_, traces_, rates_, c);
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      const obs::TraceFile trace = sink.Collect();
      SCOPED_TRACE(std::string("method=") + core::Name(method) +
                   " shards=" + std::to_string(shards));
      EXPECT_EQ(trace.info.count("fault_config"), 0u);
      EXPECT_EQ(trace.info.count("num_sources"), 0u);
      for (const obs::TraceEvent& e : trace.events) {
        ASSERT_FALSE(IsFaultKind(e.kind)) << "event #" << e.id;
        // No sequence stamps on the push path either.
        if (e.kind == obs::TraceEventKind::kRefreshEmitted ||
            e.kind == obs::TraceEventKind::kRefreshArrived) {
          ASSERT_EQ(e.flag, 0) << "event #" << e.id;
        }
      }
      if (const auto& s = trace.summary) {
        EXPECT_EQ(s->fault_drops, 0);
        EXPECT_EQ(s->retransmits, 0);
        EXPECT_EQ(s->duplicates_suppressed, 0);
        EXPECT_EQ(s->lease_expiries, 0);
        EXPECT_EQ(s->degraded_query_seconds, 0.0);
      }
      // The serialized JSONL is what the golden e2e fixtures byte-compare;
      // it must not even mention the fault vocabulary.
      EXPECT_EQ(obs::TraceToJsonLines(trace).find("fault"),
                std::string::npos);
      EXPECT_EQ(m->fault_drops, 0);
      EXPECT_EQ(m->retransmits, 0);
      EXPECT_EQ(m->duplicates_suppressed, 0);
      EXPECT_EQ(m->lease_expiries, 0);
      EXPECT_EQ(m->degraded_query_seconds, 0.0);
    }
  }
}

TEST_F(ChaosDiffTest, NullFaultRunLeavesNoFaultInstruments) {
  // The sim.fault.* counters are registered only for active configs, so
  // fault-free run reports stay byte-identical to the pre-fault layout.
  obs::MetricRegistry registry;
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 3);
  c.registry = &registry;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok());
  for (const obs::MetricRegistry::Entry& e : registry.Entries()) {
    EXPECT_EQ(e.name.rfind("sim.fault.", 0), std::string::npos) << e.name;
  }
}

TEST_F(ChaosDiffTest, SeededChaosReplaysByteIdentically) {
  for (int shards : {1, 4}) {
    std::string rendered[2];
    SimMetrics metrics[2];
    for (int run = 0; run < 2; ++run) {
      obs::TraceSink sink;
      SimConfig c = Config(core::AssignmentMethod::kDualDab, 7);
      c.fault = Chaos();
      c.coord_shards = shards;
      c.trace = &sink;
      auto m = RunSimulation(queries_, traces_, rates_, c);
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      metrics[run] = *m;
      rendered[run] = obs::TraceToJsonLines(sink.Collect());
    }
    EXPECT_EQ(rendered[0], rendered[1]) << "shards=" << shards;
    EXPECT_EQ(metrics[0].fault_drops, metrics[1].fault_drops);
    EXPECT_EQ(metrics[0].retransmits, metrics[1].retransmits);
    EXPECT_EQ(metrics[0].mean_fidelity_loss_pct,
              metrics[1].mean_fidelity_loss_pct);
  }
}

/// Run under chaos with a capture trace, replay through CheckTrace and
/// demand zero invariant failures plus exact fault-counter re-derivation.
void RunChaosAndVerify(const std::vector<PolynomialQuery>& queries,
                       const workload::TraceSet& traces, const Vector& rates,
                       SimConfig config, SimMetrics* metrics_out = nullptr,
                       obs::TraceFile* trace_out = nullptr) {
  obs::TraceSink sink;
  obs::MetricRegistry registry;
  config.trace = &sink;
  config.registry = &registry;
  auto m = RunSimulation(queries, traces, rates, config);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  const obs::TraceFile trace = sink.Collect();
  obs::TraceCheckOptions opt;
  obs::RunReport rr = obs::RunReport::FromRegistry(registry);
  opt.report = &rr;
  auto check = obs::CheckTrace(trace, opt);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->ok()) << check->ToText(trace);
  ASSERT_TRUE(trace.summary.has_value());
  EXPECT_EQ(check->derived.refreshes, m->refreshes);
  EXPECT_EQ(check->derived.recomputations, m->recomputations);
  EXPECT_EQ(check->derived.mean_fidelity_loss_pct,
            m->mean_fidelity_loss_pct);
  EXPECT_EQ(check->derived.fault_drops, m->fault_drops);
  EXPECT_EQ(check->derived.retransmits, m->retransmits);
  EXPECT_EQ(check->derived.duplicates_suppressed,
            m->duplicates_suppressed);
  EXPECT_EQ(check->derived.lease_expiries, m->lease_expiries);
  EXPECT_EQ(check->derived.degraded_query_seconds,
            m->degraded_query_seconds);
  if (metrics_out != nullptr) *metrics_out = *m;
  if (trace_out != nullptr) *trace_out = trace;
}

TEST_F(ChaosDiffTest, ChaosRunsKeepTracecheckGreen) {
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab, core::AssignmentMethod::kWsDab}) {
    for (int shards : {1, 2, 4}) {
      SimConfig c = Config(method, 7);
      c.fault = Chaos();
      c.coord_shards = shards;
      SCOPED_TRACE(std::string("method=") + core::Name(method) +
                   " shards=" + std::to_string(shards));
      SimMetrics m;
      RunChaosAndVerify(queries_, traces_, rates_, c, &m);
      EXPECT_GT(m.fault_drops, 0);
      EXPECT_GT(m.retransmits, 0);
    }
  }
}

TEST_F(ChaosDiffTest, DropHeavyRunRetransmitsAndSuppressesDuplicates) {
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 11);
  c.fault.drop_prob = 0.25;
  c.fault.dup_prob = 0.15;
  c.fault.retx_timeout_s = 1.0;
  SimMetrics m;
  RunChaosAndVerify(queries_, traces_, rates_, c, &m);
  EXPECT_GT(m.fault_drops, 0);
  EXPECT_GT(m.retransmits, 0);
  EXPECT_GT(m.duplicates_suppressed, 0);
}

TEST_F(ChaosDiffTest, CrashesExpireLeasesDegradeAndRecover) {
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 5);
  c.fault.crash_prob = 0.01;
  c.fault.crash_recovery_s = 40.0;
  c.fault.heartbeat_s = 3.0;
  c.fault.lease_s = 6.0;
  SimMetrics m;
  obs::TraceFile trace;
  RunChaosAndVerify(queries_, traces_, rates_, c, &m, &trace);
  EXPECT_GT(m.lease_expiries, 0);
  EXPECT_GT(m.degraded_query_seconds, 0.0);
  int degrades = 0;
  int recovers = 0;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind == obs::TraceEventKind::kDegrade) ++degrades;
    if (e.kind == obs::TraceEventKind::kRecover) ++recovers;
  }
  EXPECT_GT(degrades, 0);
  // Crashed sources come back well before the run ends, so at least one
  // degraded query must have recovered.
  EXPECT_GT(recovers, 0);
}

TEST_F(ChaosDiffTest, ProtocolOnlyRunVerifiesAndInjectsNothing) {
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 3);
  c.fault.protocol_only = true;
  SimMetrics m;
  RunChaosAndVerify(queries_, traces_, rates_, c, &m);
  EXPECT_EQ(m.fault_drops, 0);
  EXPECT_EQ(m.duplicates_suppressed, 0);
  EXPECT_EQ(m.lease_expiries, 0);
  EXPECT_EQ(m.degraded_query_seconds, 0.0);
}

TEST_F(ChaosDiffTest, EveryViolationUnderChaosIsAttributed) {
  // Zero network delay removes in-flight staleness, so with a
  // failure-free solver a QAB violation can only be a fault's doing:
  // every fidelity sample must carry flag 1 (degraded) or 2
  // (fault-caused) with a concrete cause event. trace_check re-derives
  // the attribution independently; this asserts the stronger claim that
  // under these conditions nothing is benign.
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 7);
  c.delays.zero_delay = true;
  c.fault.drop_prob = 0.15;
  c.fault.crash_prob = 0.005;
  c.fault.retx_timeout_s = 1.0;
  c.fault.lease_s = 8.0;
  SimMetrics m;
  obs::TraceFile trace;
  RunChaosAndVerify(queries_, traces_, rates_, c, &m, &trace);
  ASSERT_EQ(m.solver_failures, 0)
      << "workload regressed: stale plans would make violations benign";
  int64_t violations = 0;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind != obs::TraceEventKind::kFidelityViolation) continue;
    ++violations;
    EXPECT_NE(e.flag, 0) << "unattributed violation #" << e.id;
    EXPECT_NE(e.cause, 0u) << "violation #" << e.id << " without a cause";
  }
  EXPECT_GT(violations, 0) << "chaos config induced no QAB violations";
}

TEST_F(ChaosDiffTest, FaultCountersMirrorRegistryExactly) {
  obs::MetricRegistry registry;
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 7);
  c.fault = Chaos();
  c.registry = &registry;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(registry.GetCounter("sim.fault.drops")->value(),
            m->fault_drops);
  EXPECT_EQ(registry.GetCounter("sim.fault.retransmits")->value(),
            m->retransmits);
  EXPECT_EQ(registry.GetCounter("sim.fault.duplicates_suppressed")->value(),
            m->duplicates_suppressed);
  EXPECT_EQ(registry.GetCounter("sim.fault.lease_expiries")->value(),
            m->lease_expiries);
  EXPECT_EQ(static_cast<double>(
                registry.GetCounter("sim.fault.degraded_query_seconds")
                    ->value()),
            m->degraded_query_seconds);
}

// --- Satellite (b): config validation regressions. Each of these used to
// slip through to the RNG (Rng::Pareto aborts the process on a bad mean /
// shape) or silently misbehave; now they abort the run with a
// diagnostic before any event is simulated. ---

TEST_F(ChaosDiffTest, InvalidFaultConfigIsRejected) {
  const auto rejects = [&](FaultConfig f, const char* label) {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 3);
    c.fault = f;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    EXPECT_FALSE(m.ok()) << label;
  };
  FaultConfig f;
  f.drop_prob = -0.1;
  rejects(f, "negative drop_prob");
  f = FaultConfig{};
  f.drop_prob = 1.5;
  rejects(f, "drop_prob > 1");
  f = FaultConfig{};
  f.crash_prob = std::numeric_limits<double>::quiet_NaN();
  rejects(f, "NaN crash_prob");
  f = FaultConfig{};
  f.protocol_only = true;
  f.retx_timeout_s = 0.0;
  rejects(f, "zero retx_timeout_s");
  f = FaultConfig{};
  f.protocol_only = true;
  f.lease_s = -3.0;
  rejects(f, "negative lease_s");
  f = FaultConfig{};
  f.drop_prob = 0.1;
  f.heartbeat_s = std::numeric_limits<double>::infinity();
  rejects(f, "infinite heartbeat_s");
}

TEST_F(ChaosDiffTest, RetransmitCapExhaustionDegradesAndStaysAttributed) {
  // A black-hole network (every message dropped) drives each item's
  // pending refresh far past the backoff cap: attempts keep climbing but
  // the retry gap must pin at 8 x retx_timeout_s. The silence then lapses
  // every lease, each affected query degrades exactly once, and every
  // post-degrade fidelity violation stays attributed — first to the
  // concrete drop fault (flag 2, cause = the drop event), then to the
  // degradation announcement (flag 1, cause = the degrade event). The
  // offline verifier replays the same blame scan, so CheckTrace green
  // means the attribution chain survives end to end.
  obs::TraceSink sink;
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 11);
  c.fault.drop_prob = 1.0;
  c.fault.retx_timeout_s = 0.5;
  c.fault.heartbeat_s = 2.0;
  // Long enough that values drift past their QABs well before the lease
  // lapses: both attribution shapes (pre-degrade drop blame, post-degrade
  // announcement blame) must appear in one run.
  c.fault.lease_s = 60.0;
  c.trace = &sink;
  auto m = RunSimulation(queries_, traces_, rates_, c);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_GT(m->retransmits, 0);
  EXPECT_GT(m->lease_expiries, 0);
  EXPECT_GT(m->degraded_query_seconds, 0.0);

  const obs::TraceFile trace = sink.Collect();
  // Past the cap: attempts well beyond 3, and for one item the gaps
  // between capped retries are exactly 8 x retx_timeout_s = 4 s.
  double max_attempts = 0.0;
  int32_t capped_item = -1;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind != obs::TraceEventKind::kRetransmit) continue;
    max_attempts = std::max(max_attempts, e.b);
    if (e.b >= 6.0) capped_item = e.item;
  }
  EXPECT_GE(max_attempts, 6.0) << "cap never exhausted";
  ASSERT_GE(capped_item, 0);
  // Follow each retry chain (a retransmit's cause is the previous
  // emission of the same seq): once an attempt count passes 3, the gap
  // to the chained successor must pin at exactly 8 x retx_timeout_s.
  std::map<uint64_t, const obs::TraceEvent*> retx_by_cause;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind == obs::TraceEventKind::kRetransmit && e.cause != 0) {
      retx_by_cause[e.cause] = &e;
    }
  }
  int capped_gaps = 0;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind != obs::TraceEventKind::kRetransmit || e.b < 3.0) continue;
    const auto next = retx_by_cause.find(e.id);
    if (next == retx_by_cause.end()) continue;  // chain ended (new seq)
    EXPECT_DOUBLE_EQ(next->second->time - e.time,
                     8.0 * c.fault.retx_timeout_s)
        << "backoff gap drifted past the cap at attempt "
        << next->second->b;
    ++capped_gaps;
  }
  EXPECT_GT(capped_gaps, 0) << "no chained capped retries observed";

  // Degrades fired, and both attribution shapes occur with their cause
  // ids pointing at the right event kinds.
  std::map<uint64_t, obs::TraceEventKind> kind_by_id;
  for (const obs::TraceEvent& e : trace.events) kind_by_id[e.id] = e.kind;
  int degrades = 0, blamed_on_drop = 0, blamed_on_degrade = 0;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind == obs::TraceEventKind::kDegrade) ++degrades;
    if (e.kind != obs::TraceEventKind::kFidelityViolation) continue;
    ASSERT_NE(e.flag, 0) << "unattributed violation under a total "
                            "blackout, event #" << e.id;
    ASSERT_NE(e.cause, 0u);
    const auto cause = kind_by_id.find(e.cause);
    ASSERT_NE(cause, kind_by_id.end());
    if (e.flag == 2) {
      EXPECT_EQ(cause->second, obs::TraceEventKind::kFaultDrop);
      ++blamed_on_drop;
    } else {
      ASSERT_EQ(e.flag, 1);
      EXPECT_EQ(cause->second, obs::TraceEventKind::kDegrade);
      ++blamed_on_degrade;
    }
  }
  EXPECT_GT(degrades, 0);
  EXPECT_GT(blamed_on_drop, 0) << "no violation traced to the drop fault";
  EXPECT_GT(blamed_on_degrade, 0);

  // The offline verifier re-derives the same blame scan and counters.
  Result<obs::TraceCheckReport> checked =
      obs::CheckTrace(trace, obs::TraceCheckOptions{});
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_TRUE(checked->ok()) << checked->ToText(trace);
}

TEST_F(ChaosDiffTest, InvalidDelayConfigIsRejected) {
  const auto rejects = [&](DelayConfig d, const char* label) {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 3);
    c.delays = d;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    EXPECT_FALSE(m.ok()) << label;
  };
  DelayConfig d;
  d.node_node_mean = -0.1;
  rejects(d, "negative node_node_mean");
  d = DelayConfig{};
  d.node_node_mean = 0.0;  // Rng::Pareto would abort on mean 0
  rejects(d, "zero mean without zero_delay");
  d = DelayConfig{};
  d.pareto_shape = 1.0;  // Pareto needs shape > 1 for a finite mean
  rejects(d, "shape <= 1");
  d = DelayConfig{};
  d.recompute_cpu_s = std::numeric_limits<double>::quiet_NaN();
  rejects(d, "NaN recompute_cpu_s");
  // Still legal: zero CPU cost, and zero_delay with zeroed means.
  DelayConfig ok;
  ok.recompute_cpu_s = 0.0;
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 3);
  c.delays = ok;
  EXPECT_TRUE(RunSimulation(queries_, traces_, rates_, c).ok());
}

}  // namespace
}  // namespace polydab::sim
