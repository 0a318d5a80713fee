// Differential test harness for the real-thread lane runtime
// (src/rt/, SimConfig::threads, docs/CONCURRENCY.md). Oracles:
//
//  1. Canonical equivalence: a threads=N run's trace, passed through
//     CanonicalizeThreadedTrace (obs/trace_canon.h), must be
//     byte-identical JSONL to the threads=0 virtual-clock engine under
//     the same seed — across planner methods x shard counts x worker
//     counts. SimMetrics must match field-for-field (bitwise on the
//     fidelity loss).
//  2. Per-lane stream equality: grouping the canonicalized events by
//     coordinator lane reproduces the oracle's per-lane streams exactly
//     (implied by byte identity, asserted separately so a reordering
//     regression names the lane it broke).
//  3. Trace replay: canonicalized threaded chaos and churn runs must
//     keep obs::CheckTrace green with zero invariant failures.
//  4. threads=0 purity: the default config must keep reproducing the
//     pre-threading serial goldens bit-for-bit, and its serialized
//     trace must not mention the thread vocabulary at all.
//  5. In-service dedup: on a query set where four users registered each
//     query, stale parts with bitwise-equal solve inputs are solved once
//     and the copies installed, at every thread count; traces, SimMetrics
//     and every core.planner.* / gp.solver.* instrument total must equal
//     the threads=0 engine-off run's, and the threads=0 run must match
//     digests pinned from the build that solved every stale part. The
//     equality predicate and the exactness of copying are unit-tested.
//
// The failure path (rt_fail_at worker abort), series recording on the
// threaded runtime and config validation ride along. The whole binary is
// labelled `threads`, so the threads-tsan / threads-asan presets run
// exactly this harness plus tests/rt_test.cc under the sanitizers.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "core/planner.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_canon.h"
#include "obs/trace_check.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/churn_gen.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::sim {
namespace {

/// Same fixed workload as tests/coord_shard_diff_test.cc: 24 items, 500
/// ticks, 10 portfolio PPQs of 2-3 bilinear pairs. Sharing the fixture
/// means the serial goldens pinned there apply verbatim here.
class ThreadedDiffTest : public ::testing::Test {
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

  SimConfig Config(core::AssignmentMethod method, int shards,
                   int threads) const {
    SimConfig c;
    c.planner.method = method;
    c.planner.dual.mu = 5.0;
    c.seed = 3;
    c.coord_shards = shards;
    c.shard_policy = shards > 1 ? ShardPolicy::kQueryHash
                                : ShardPolicy::kEqiComponents;
    c.threads = threads;
    return c;
  }

  /// Run, collect the trace, canonicalize when threaded. Returns the
  /// rendered JSONL; metrics through *out.
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
  // Bitwise: the virtual-clock accumulation sequence is the contract the
  // worker pool must not perturb.
  EXPECT_EQ(got.mean_fidelity_loss_pct, want.mean_fidelity_loss_pct)
      << label;
}

TEST_F(ThreadedDiffTest, CanonicalThreadedTraceMatchesVirtualClockOracle) {
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab,
        core::AssignmentMethod::kOptimalRefresh}) {
    for (int shards : {1, 2, 4}) {
      SimMetrics oracle_metrics;
      const std::string oracle =
          RunRendered(Config(method, shards, 0), &oracle_metrics);
      ASSERT_FALSE(oracle.empty());
      for (int threads : {1, 2, 3}) {
        SCOPED_TRACE(std::string("method=") + core::Name(method) +
                     " shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        SimMetrics got_metrics;
        const std::string got =
            RunRendered(Config(method, shards, threads), &got_metrics);
        ASSERT_FALSE(got.empty());
        EXPECT_EQ(got, oracle);
        ExpectMetricsEqual(got_metrics, oracle_metrics, "vs oracle");
      }
    }
  }
}

TEST_F(ThreadedDiffTest, PerLaneEventStreamsMatchOracle) {
  // Byte identity already implies this; grouping by lane first makes a
  // reordering regression fail with the lane and position it broke.
  SimMetrics ignored;
  const std::string oracle = RunRendered(
      Config(core::AssignmentMethod::kDualDab, 4, 0), &ignored);
  const std::string got = RunRendered(
      Config(core::AssignmentMethod::kDualDab, 4, 3), &ignored);
  ASSERT_FALSE(oracle.empty());
  ASSERT_FALSE(got.empty());
  auto by_lane = [](const std::string& rendered) {
    std::vector<std::vector<std::string>> lanes(5);  // shard -1 -> [4]
    size_t start = 0;
    while (start < rendered.size()) {
      size_t end = rendered.find('\n', start);
      if (end == std::string::npos) end = rendered.size();
      const std::string line = rendered.substr(start, end - start);
      start = end + 1;
      if (line.find("\"type\":\"event\"") == std::string::npos) continue;
      size_t pos = line.find("\"shard\":");
      int shard = -1;
      if (pos != std::string::npos) {
        shard = std::atoi(line.c_str() + pos + 8);
      }
      lanes[shard < 0 ? 4 : shard].push_back(line);
    }
    return lanes;
  };
  const auto want = by_lane(oracle);
  const auto have = by_lane(got);
  for (size_t lane = 0; lane < want.size(); ++lane) {
    SCOPED_TRACE("lane=" + std::to_string(lane == 4 ? -1 : (int)lane));
    ASSERT_EQ(have[lane].size(), want[lane].size());
    for (size_t i = 0; i < want[lane].size(); ++i) {
      ASSERT_EQ(have[lane][i], want[lane][i]) << "position " << i;
    }
  }
}

TEST_F(ThreadedDiffTest, ThreadedChaosRunMatchesOracleAndVerifies) {
  // Fault injection on top of the worker pool: drops, dups, crashes and
  // lease expiries reshuffle which parts go stale when, but every solve
  // still lands in pass 1 of its service, so canonical equivalence must
  // survive — and the canonicalized trace must replay clean.
  FaultConfig f;
  f.drop_prob = 0.08;
  f.dup_prob = 0.05;
  f.crash_prob = 0.003;
  f.crash_recovery_s = 25.0;
  f.retx_timeout_s = 1.0;
  f.heartbeat_s = 4.0;
  f.lease_s = 8.0;
  SimConfig base = Config(core::AssignmentMethod::kDualDab, 2, 0);
  base.fault = f;
  SimMetrics oracle_metrics;
  const std::string oracle = RunRendered(base, &oracle_metrics);
  ASSERT_FALSE(oracle.empty());
  SimConfig threaded = base;
  threaded.threads = 3;
  SimMetrics got_metrics;
  const std::string got = RunRendered(threaded, &got_metrics);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, oracle);
  ExpectMetricsEqual(got_metrics, oracle_metrics, "chaos");

  obs::TraceSink sink;
  threaded.trace = &sink;
  ASSERT_TRUE(RunSimulation(queries_, traces_, rates_, threaded).ok());
  obs::TraceFile trace = sink.Collect();
  ASSERT_TRUE(obs::CanonicalizeThreadedTrace(&trace).ok());
  auto check = obs::CheckTrace(trace);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->ok()) << check->ToText(trace);
}

TEST_F(ThreadedDiffTest, ThreadedChurnRunMatchesOracleAndVerifies) {
  // Runtime register / modify / deregister churn on the worker pool:
  // the live query set changes between services, so pass 1's replicated
  // stale-set walk has to track plan maintenance exactly.
  workload::ChurnConfig cc;
  cc.arrival_rate = 0.1;
  cc.mean_lifetime_s = 150.0;
  cc.modify_prob = 0.3;
  cc.horizon_s = 500.0;
  cc.num_items = 24;
  auto run = [&](int threads, SimMetrics* out,
                 obs::TraceFile* trace_out) -> std::string {
    Rng churn_rng(7);
    auto schedule =
        workload::GenerateChurnSchedule(cc, traces_.Snapshot(0), &churn_rng);
    EXPECT_TRUE(schedule.ok());
    svc::AdmissionConfig ac;
    svc::QueryService service(ac, std::move(*schedule), nullptr,
                              PlanMaintenance::kIncremental);
    obs::TraceSink sink;
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 2, threads);
    c.service = &service;
    c.trace = &sink;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok()) return "";
    *out = *m;
    obs::TraceFile trace = sink.Collect();
    if (threads > 0) {
      Status canon = obs::CanonicalizeThreadedTrace(&trace);
      EXPECT_TRUE(canon.ok()) << canon.ToString();
      if (!canon.ok()) return "";
    }
    if (trace_out != nullptr) *trace_out = trace;
    return obs::TraceToJsonLines(trace);
  };
  SimMetrics oracle_metrics, got_metrics;
  const std::string oracle = run(0, &oracle_metrics, nullptr);
  obs::TraceFile threaded_trace;
  const std::string got = run(3, &got_metrics, &threaded_trace);
  ASSERT_FALSE(oracle.empty());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, oracle);
  ExpectMetricsEqual(got_metrics, oracle_metrics, "churn");
  ASSERT_GT(threaded_trace.events.size(), 0u);
  auto check = obs::CheckTrace(threaded_trace);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->ok()) << check->ToText(threaded_trace);
}

TEST_F(ThreadedDiffTest, DefaultConfigKeepsSerialGoldens) {
  // The same pinned values as coord_shard_diff_test's kGolden dual_s3 /
  // optimal_s3 rows (captured from the pre-sharding serial build): the
  // threads field defaulting to 0 must leave the engine bit-identical
  // to every build before the rt layer existed.
  struct Golden {
    core::AssignmentMethod method;
    double mu;
    int64_t refreshes, recomputations, dab_changes, notifications;
    double loss;
  };
  const Golden goldens[] = {
      {core::AssignmentMethod::kDualDab, 5.0, 821, 61, 80, 432,
       0.52104208416833664},
      {core::AssignmentMethod::kOptimalRefresh, 1.0, 756, 3147, 3676, 419,
       0.5410821643286573},
  };
  for (const Golden& g : goldens) {
    SimConfig c = Config(g.method, 1, 0);
    c.planner.dual.mu = g.mu;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->refreshes, g.refreshes);
    EXPECT_EQ(m->recomputations, g.recomputations);
    EXPECT_EQ(m->dab_change_messages, g.dab_changes);
    EXPECT_EQ(m->user_notifications, g.notifications);
    EXPECT_EQ(m->solver_failures, 0);
    EXPECT_EQ(m->mean_fidelity_loss_pct, g.loss);
  }
}

TEST_F(ThreadedDiffTest, SerialTracesCarryNoThreadVocabulary) {
  // threads=0 traces carry no thread vocabulary: no "thread" key, no
  // rt_* info keys.
  obs::TraceSink sink;
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 2, 0);
  c.trace = &sink;
  ASSERT_TRUE(RunSimulation(queries_, traces_, rates_, c).ok());
  const obs::TraceFile trace = sink.Collect();
  EXPECT_EQ(trace.info.count("rt_threads"), 0u);
  const std::string rendered = obs::TraceToJsonLines(trace);
  EXPECT_EQ(rendered.find("\"thread\""), std::string::npos);
  EXPECT_EQ(rendered.find("rt_"), std::string::npos);
}

TEST_F(ThreadedDiffTest, CanonicalizationIsIdempotent) {
  obs::TraceSink sink;
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 2, 3);
  c.trace = &sink;
  ASSERT_TRUE(RunSimulation(queries_, traces_, rates_, c).ok());
  obs::TraceFile trace = sink.Collect();
  ASSERT_TRUE(obs::CanonicalizeThreadedTrace(&trace).ok());
  const std::string once = obs::TraceToJsonLines(trace);
  ASSERT_TRUE(obs::CanonicalizeThreadedTrace(&trace).ok());
  EXPECT_EQ(obs::TraceToJsonLines(trace), once);
}

TEST_F(ThreadedDiffTest, WorkerAbortFailsTheRunWithTheInjectedError) {
  {
    SimConfig c = Config(core::AssignmentMethod::kOptimalRefresh, 2, 2);
    c.rt_fail_at = 1;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    ASSERT_FALSE(m.ok());
    EXPECT_NE(m.status().ToString().find("abort"), std::string::npos)
        << m.status().ToString();
  }
  // rt_fail_at counts woken workers only. Two queries over the same two
  // items, each registered by four users: under Optimal Refresh every
  // service of either item has 8 stale parts in 2 distinct groups. A
  // service wakes at most one worker per group beyond the first, so with
  // one worker it wakes exactly one however the event loop and the
  // worker split the groups: a run wakes recomputations / 8 workers — not
  // /4 (one wake-up per group) and not /1 (copies counted).
  const Vector v0 = traces_.Snapshot(0);
  const Polynomial pa =
      Polynomial::FromMonomial(Monomial(1.0, {{0, 1}, {1, 1}}));
  const Polynomial pb =
      Polynomial::FromMonomial(Monomial(2.0, {{0, 2}, {1, 1}}));
  std::vector<PolynomialQuery> qs;
  for (int k = 0; k < 4; ++k) {
    qs.push_back({2 * k, pa, 0.01 * pa.Evaluate(v0)});
    qs.push_back({2 * k + 1, pb, 0.01 * pb.Evaluate(v0)});
  }
  SimConfig c = Config(core::AssignmentMethod::kOptimalRefresh, 1, 1);
  auto clean = RunSimulation(qs, traces_, rates_, c);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_GT(clean->recomputations, 0);
  ASSERT_EQ(clean->recomputations % 8, 0);
  const int64_t pool_jobs = clean->recomputations / 8;
  ASSERT_GE(pool_jobs, 2);
  for (int64_t k : {pool_jobs - 1, pool_jobs}) {
    c.rt_fail_at = k;
    auto failed = RunSimulation(qs, traces_, rates_, c);
    ASSERT_FALSE(failed.ok()) << "rt_fail_at=" << k;
    EXPECT_NE(failed.status().ToString().find("abort"), std::string::npos)
        << failed.status().ToString();
  }
  c.rt_fail_at = pool_jobs + 1;
  auto past = RunSimulation(qs, traces_, rates_, c);
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  ExpectMetricsEqual(*past, *clean, "rt_fail_at past the last pool job");
}

TEST_F(ThreadedDiffTest, RawThreadedTraceMatchesOracleUpToRtInfoKeys) {
  // Every event of a threaded run is emitted on the event loop at its
  // serial slot, so the raw trace needs no re-sort: dropping the rt_*
  // info key by hand — not through the canonicalizer — must already
  // give the oracle's bytes.
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab,
        core::AssignmentMethod::kOptimalRefresh}) {
    SCOPED_TRACE(core::Name(method));
    SimMetrics ignored;
    const std::string oracle = RunRendered(Config(method, 2, 0), &ignored);
    ASSERT_FALSE(oracle.empty());
    obs::TraceSink sink;
    SimConfig c = Config(method, 2, 3);
    c.trace = &sink;
    ASSERT_TRUE(RunSimulation(queries_, traces_, rates_, c).ok());
    obs::TraceFile raw = sink.Collect();
    ASSERT_EQ(raw.info.erase("rt_threads"), 1u);
    EXPECT_EQ(obs::TraceToJsonLines(raw), oracle);
  }
}

TEST_F(ThreadedDiffTest, CanonicalizerRejectsThreadTaggedEvents) {
  // Events carry no thread field, so a thread tag cannot reach
  // CanonicalizeThreadedTrace: the strict trace reader that loads its
  // input rejects a "thread" key on an event as an unknown key.
  obs::TraceSink sink;
  SimConfig c = Config(core::AssignmentMethod::kDualDab, 2, 2);
  c.trace = &sink;
  ASSERT_TRUE(RunSimulation(queries_, traces_, rates_, c).ok());
  const std::string text = obs::TraceToJsonLines(sink.Collect());
  const std::string head = "{\"type\":\"event\"";
  const size_t last_event = text.rfind(head);
  ASSERT_NE(last_event, std::string::npos);
  std::string tagged = text;
  tagged.insert(last_event + head.size(), ",\"thread\":0");
  auto parsed = obs::ParseTraceJsonLines(tagged);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("unknown key 'thread'"),
            std::string::npos)
      << parsed.status().ToString();

  auto clean = obs::ParseTraceJsonLines(text);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(obs::CanonicalizeThreadedTrace(&*clean).ok());
}

/// The shared fixture's workload with every query registered by four
/// users (the paper's EQI-equivalent case, §IV): copies keep their own
/// ids, in four consecutive blocks so a group's copies are interleaved
/// with other groups in service order.
class DuplicatedQueryTest : public ThreadedDiffTest {
 protected:
  static std::vector<PolynomialQuery> Quadruple(
      const std::vector<PolynomialQuery>& base) {
    std::vector<PolynomialQuery> out;
    for (int copy = 0; copy < 4; ++copy) {
      for (PolynomialQuery q : base) {
        q.id = static_cast<int>(out.size());
        out.push_back(std::move(q));
      }
    }
    return out;
  }

  void SetUp() override {
    ThreadedDiffTest::SetUp();
    portfolio_ = Quadruple(
        std::vector<PolynomialQuery>(queries_.begin(), queries_.begin() + 6));
    Rng rng(99);
    workload::QueryGenConfig qc;
    qc.num_items = 24;
    qc.min_pairs = 1;
    qc.max_pairs = 2;
    general_ = Quadruple(*workload::GenerateArbitrageQueries(
        5, qc, traces_.Snapshot(0), /*dependent=*/true, &rng));
  }

  std::vector<PolynomialQuery> portfolio_;
  std::vector<PolynomialQuery> general_;
};

struct DupCase {
  const char* name;
  core::AssignmentMethod method;
  core::GeneralPqHeuristic heuristic;
  bool general;
};

constexpr DupCase kDupCases[] = {
    {"dual", core::AssignmentMethod::kDualDab,
     core::GeneralPqHeuristic::kDifferentSum, false},
    {"optimal", core::AssignmentMethod::kOptimalRefresh,
     core::GeneralPqHeuristic::kDifferentSum, false},
    {"general_hh", core::AssignmentMethod::kDualDab,
     core::GeneralPqHeuristic::kHalfAndHalf, true},
    {"general_ds", core::AssignmentMethod::kDualDab,
     core::GeneralPqHeuristic::kDifferentSum, true},
};

TEST_F(DuplicatedQueryTest, DedupedServicesMatchOracle) {
  for (const DupCase& dc : kDupCases) {
    queries_ = dc.general ? general_ : portfolio_;
    for (int shards : {1, 4}) {
      SimConfig base = Config(dc.method, shards, 0);
      base.planner.heuristic = dc.heuristic;
      SimMetrics oracle_metrics;
      const std::string oracle = RunRendered(base, &oracle_metrics);
      ASSERT_FALSE(oracle.empty());
      for (int threads : {1, 2, 3, 4}) {
        SCOPED_TRACE(std::string(dc.name) +
                     " shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        SimConfig c = base;
        c.threads = threads;
        SimMetrics got_metrics;
        const std::string got = RunRendered(c, &got_metrics);
        ASSERT_FALSE(got.empty());
        EXPECT_EQ(got, oracle);
        ExpectMetricsEqual(got_metrics, oracle_metrics, "vs oracle");
      }
    }
  }
}

TEST_F(DuplicatedQueryTest, ServicesWithMoreGroupsThanClaimantsMatchOracle) {
  // Twelve distinct queries on items 0-2, each registered by two users:
  // under Optimal Refresh every refresh of those items has 12 groups, more
  // than the event loop plus four workers can hold one apiece, so
  // claimants come back for more and pass 2 overtakes unfinished groups.
  const Vector v0 = traces_.Snapshot(0);
  std::vector<PolynomialQuery> base;
  for (int k = 0; k < 12; ++k) {
    const Polynomial p =
        Polynomial::FromMonomial(Monomial(1.0 + 0.25 * k, {{0, 1}, {1, 1}})) +
        Polynomial::FromMonomial(Monomial(0.5, {{k % 2, 1}, {2, 1}}));
    base.push_back({k, p, (0.005 + 0.001 * k) * p.Evaluate(v0)});
  }
  std::vector<PolynomialQuery> twice;
  for (int copy = 0; copy < 2; ++copy) {
    for (PolynomialQuery q : base) {
      q.id = static_cast<int>(twice.size());
      twice.push_back(std::move(q));
    }
  }
  queries_ = twice;
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kOptimalRefresh,
        core::AssignmentMethod::kDualDab}) {
    SimMetrics oracle_metrics;
    const std::string oracle =
        RunRendered(Config(method, 1, 0), &oracle_metrics);
    ASSERT_FALSE(oracle.empty());
    ASSERT_GT(oracle_metrics.recomputations, 0);
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string(core::Name(method)) +
                   " threads=" + std::to_string(threads));
      SimMetrics got_metrics;
      const std::string got =
          RunRendered(Config(method, 1, threads), &got_metrics);
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got, oracle);
      ExpectMetricsEqual(got_metrics, oracle_metrics, "vs threads=0");
    }
  }
}

/// FNV-1a over raw 64-bit words and bytes.
struct Fnv64 {
  uint64_t h = 1469598103934665603ull;
  void Byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void MixInt(int64_t v) { Mix(static_cast<uint64_t>(v)); }
  void MixDouble(double v) { Mix(std::bit_cast<uint64_t>(v)); }
  void MixString(const std::string& s) {
    MixInt(static_cast<int64_t>(s.size()));
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
};

TEST_F(DuplicatedQueryTest, SerialDedupMatchesParentDigest) {
  // The threads=0 refresh service solves each group of bitwise-equal
  // stale parts once, like the pool does, so the threaded comparisons
  // above no longer have a dedup-free oracle. These digests of the
  // rendered trace, the SimMetrics and the non-wall instrument totals of
  // each engine-off run were computed on the build before the serial
  // service grouped, which solved every stale part directly.
  constexpr uint64_t kParentDigest[][2] = {
      {0x1bb871407660518bull, 0x426d18ccc3fc992eull},  // dual: shards 1, 4
      {0x2b2a951392850196ull, 0x49ace962bb362469ull},  // optimal
      {0x49f667eb0de83b0aull, 0x4353bca50f2ca035ull},  // general_hh
      {0xf8152de81693e7dcull, 0x3098fdb34e4298a3ull},  // general_ds
  };
  for (size_t k = 0; k < std::size(kDupCases); ++k) {
    const DupCase& dc = kDupCases[k];
    queries_ = dc.general ? general_ : portfolio_;
    for (size_t s = 0; s < 2; ++s) {
      const int shards = s == 0 ? 1 : 4;
      SCOPED_TRACE(std::string(dc.name) + " shards=" + std::to_string(shards));
      SimConfig c = Config(dc.method, shards, 0);
      c.planner.heuristic = dc.heuristic;
      obs::MetricRegistry reg;
      c.registry = &reg;
      SimMetrics m;
      const std::string rendered = RunRendered(c, &m);
      ASSERT_FALSE(rendered.empty());
      Fnv64 digest;
      digest.MixString(rendered);
      for (int64_t v : {m.refreshes, m.recomputations, m.dab_change_messages,
                        m.user_notifications, m.solver_failures,
                        m.fault_drops, m.retransmits, m.duplicates_suppressed,
                        m.lease_expiries}) {
        digest.MixInt(v);
      }
      digest.MixDouble(m.mean_fidelity_loss_pct);
      digest.MixDouble(m.degraded_query_seconds);
      for (const auto& entry : reg.Entries()) {
        if (entry.kind == obs::InstrumentKind::kCounter) {
          digest.MixString(entry.name);
          digest.MixInt(entry.counter->value());
        } else if (entry.kind == obs::InstrumentKind::kHistogram) {
          digest.MixString(entry.name);
          digest.MixInt(entry.histogram->count());
          if (entry.name.find("seconds") == std::string::npos) {
            digest.MixDouble(entry.histogram->sum());
          }
        }
      }
      EXPECT_EQ(digest.h, kParentDigest[k][s])
          << std::hex << "0x" << digest.h << "ull";
    }
  }
}

/// Every instrument \p oracle exports must report the same counter value
/// and histogram sample count in \p got, and the same histogram sum
/// wherever it is not wall time.
void ExpectInstrumentTotalsMatch(const obs::MetricRegistry& oracle,
                                 obs::MetricRegistry* got) {
  int compared = 0;
  for (const auto& entry : oracle.Entries()) {
    if (entry.kind == obs::InstrumentKind::kCounter) {
      EXPECT_EQ(got->GetCounter(entry.name)->value(), entry.counter->value())
          << entry.name;
      ++compared;
    } else if (entry.kind == obs::InstrumentKind::kHistogram) {
      EXPECT_EQ(got->GetHistogram(entry.name)->count(),
                entry.histogram->count())
          << entry.name;
      if (entry.name.find("seconds") == std::string::npos) {
        EXPECT_EQ(got->GetHistogram(entry.name)->sum(),
                  entry.histogram->sum())
            << entry.name;
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 10);  // the walk saw the real export, not a stub
}

TEST_F(DuplicatedQueryTest, InstrumentTotalsMatchEngineOffOracle) {
  // A part that installs a copy replays the solve's core.planner.* and
  // gp.solver.* increments like a memo hit does, so the threaded runs'
  // totals equal the threads=0 engine-off oracle's, with and without the
  // memo underneath.
  for (const DupCase& dc : {kDupCases[1], kDupCases[2]}) {
    queries_ = dc.general ? general_ : portfolio_;
    SimConfig base = Config(dc.method, 2, 0);
    base.planner.heuristic = dc.heuristic;
    obs::MetricRegistry oracle_reg;
    SimConfig oracle_cfg = base;
    oracle_cfg.registry = &oracle_reg;
    ASSERT_TRUE(RunSimulation(queries_, traces_, rates_, oracle_cfg).ok());
    ASSERT_GT(oracle_reg.GetCounter("gp.solver.solves")->value(), 0);
    for (int threads : {1, 3}) {
      for (int cache : {0, 256}) {
        SCOPED_TRACE(std::string(dc.name) +
                     " threads=" + std::to_string(threads) +
                     " solve_cache=" + std::to_string(cache));
        obs::MetricRegistry reg;
        SimConfig c = base;
        c.threads = threads;
        c.solve_cache = cache;
        c.registry = &reg;
        ASSERT_TRUE(RunSimulation(queries_, traces_, rates_, c).ok());
        ExpectInstrumentTotalsMatch(oracle_reg, &reg);
        if (cache > 0) {
          // The copies never reached the engine: it saw strictly fewer
          // solves than the solver instruments count.
          const int64_t lookups =
              reg.GetCounter("gp.engine.cache_hits")->value() +
              reg.GetCounter("gp.engine.cache_misses")->value();
          EXPECT_GT(lookups, 0);
          EXPECT_LT(lookups, reg.GetCounter("gp.solver.solves")->value());
        }
      }
    }
  }
}

/// A bilinear two-part-item PPQ with a solved-looking warm assignment.
core::PlanPart MakePart(int id) {
  core::PlanPart part;
  part.subquery.id = id;
  part.subquery.p =
      Polynomial::FromMonomial(Monomial(1.5, {{0, 1}, {1, 1}})) +
      Polynomial::FromMonomial(Monomial(0.25, {{1, 2}}));
  part.subquery.qab = 3.0;
  part.dabs.vars = {0, 1};
  part.dabs.primary = {0.125, 0.5};
  part.dabs.secondary = {0.25, 1.0};
  part.dabs.recompute_rate = 0.75;
  return part;
}

double NextUp(double v) { return std::nextafter(v, HUGE_VAL); }

TEST(ReplanDedupTest, PartsDifferingOnlyInIdMerge) {
  const core::PlanPart a = MakePart(1);
  const core::PlanPart b = MakePart(7);
  EXPECT_TRUE(core::SameReplanInputs(a, b));
  EXPECT_EQ(core::ReplanInputsHash(a), core::ReplanInputsHash(b));
}

TEST(ReplanDedupTest, OneWarmDabBitKeepsPartsApart) {
  const core::PlanPart a = MakePart(1);
  core::PlanPart b = MakePart(1);
  b.dabs.primary[1] = NextUp(b.dabs.primary[1]);
  EXPECT_FALSE(core::SameReplanInputs(a, b));
  b = MakePart(1);
  b.dabs.secondary[0] = NextUp(b.dabs.secondary[0]);
  EXPECT_FALSE(core::SameReplanInputs(a, b));
  b = MakePart(1);
  b.dabs.recompute_rate = NextUp(b.dabs.recompute_rate);
  EXPECT_FALSE(core::SameReplanInputs(a, b));
  // Equal as values, different as bits: still apart.
  core::PlanPart z = MakePart(1);
  z.dabs.primary[0] = 0.0;
  core::PlanPart nz = MakePart(1);
  nz.dabs.primary[0] = -0.0;
  EXPECT_FALSE(core::SameReplanInputs(z, nz));
}

TEST(ReplanDedupTest, OneCoefficientBitKeepsPartsApart) {
  const core::PlanPart a = MakePart(1);
  core::PlanPart b = MakePart(1);
  b.subquery.p =
      Polynomial::FromMonomial(Monomial(NextUp(1.5), {{0, 1}, {1, 1}})) +
      Polynomial::FromMonomial(Monomial(0.25, {{1, 2}}));
  EXPECT_FALSE(core::SameReplanInputs(a, b));
  // Same coefficients on different powers.
  b.subquery.p =
      Polynomial::FromMonomial(Monomial(1.5, {{0, 1}, {1, 1}})) +
      Polynomial::FromMonomial(Monomial(0.25, {{0, 2}}));
  EXPECT_FALSE(core::SameReplanInputs(a, b));
}

TEST(ReplanDedupTest, OneQabBitKeepsPartsApart) {
  const core::PlanPart a = MakePart(1);
  core::PlanPart b = MakePart(1);
  b.subquery.qab = NextUp(b.subquery.qab);
  EXPECT_FALSE(core::SameReplanInputs(a, b));
}

bool SameDabBits(const QueryDabs& a, const QueryDabs& b) {
  auto same = [](const Vector& x, const Vector& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (std::bit_cast<uint64_t>(x[i]) != std::bit_cast<uint64_t>(y[i])) {
        return false;
      }
    }
    return true;
  };
  return a.vars == b.vars && same(a.primary, b.primary) &&
         same(a.secondary, b.secondary) &&
         same({a.recompute_rate}, {b.recompute_rate}) &&
         a.single_dab == b.single_dab && a.never_stale == b.never_stale;
}

void ExpectSameRecord(const gp::SolveRecord& a, const gp::SolveRecord& b) {
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.warm_started, b.warm_started);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.stats.newton_iterations, b.stats.newton_iterations);
  EXPECT_EQ(a.stats.line_search_backtracks, b.stats.line_search_backtracks);
  EXPECT_EQ(a.stats.damped_stages, b.stats.damped_stages);
  EXPECT_EQ(a.stats.phase1, b.stats.phase1);
  EXPECT_EQ(a.stats.warm_feasible, b.stats.warm_feasible);
  EXPECT_EQ(a.stats.cold_restart, b.stats.cold_restart);
}

TEST(ReplanDedupTest, EqualInputsReplanToEqualBitsForEveryMethod) {
  // The refresh service solves one part of each SameReplanInputs group
  // and installs copies of its result in the others, at every thread
  // count. That is exact only if ReplanPart is a pure function of those
  // inputs plus view, rates and config: check it for every solve route,
  // warm-started, on a solve that fails, and warm from the stale
  // assignment a failed solve leaves in place.
  const Vector v0 = {1.2, 0.8, 2.5};
  const Vector rates = {0.3, 0.7, 0.5};
  Vector v1 = v0;
  v1[1] *= 1.05;
  const Polynomial ppq =
      Polynomial::FromMonomial(Monomial(1.0, {{0, 1}, {1, 1}})) +
      Polynomial::FromMonomial(Monomial(0.5, {{1, 1}, {2, 2}}));
  const Polynomial laq = Polynomial::FromMonomial(Monomial(2.0, {{0, 1}})) +
                         Polynomial::FromMonomial(Monomial(-1.0, {{2, 1}}));
  struct Route {
    const char* name;
    core::AssignmentMethod method;
    const Polynomial* p;
    bool gp;  // solved by the GP solver, so a tight budget fails it
  };
  const Route routes[] = {
      {"dual", core::AssignmentMethod::kDualDab, &ppq, true},
      {"optimal", core::AssignmentMethod::kOptimalRefresh, &ppq, true},
      {"wsdab", core::AssignmentMethod::kWsDab, &ppq, false},
      {"laq", core::AssignmentMethod::kDualDab, &laq, false},
  };
  for (const Route& r : routes) {
    SCOPED_TRACE(r.name);
    core::PlannerConfig cfg;
    cfg.method = r.method;
    const PolynomialQuery q{1, *r.p, 0.02 * std::fabs(r.p->Evaluate(v0))};
    auto plan = core::PlanQueryParts(q, v0, rates, cfg);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan->parts.size(), 1u);
    const core::PlanPart a = plan->parts[0];
    core::PlanPart b = a;
    b.subquery.id = 7;
    ASSERT_TRUE(core::SameReplanInputs(a, b));

    core::PlannerConfig failing = cfg;
    failing.dual.solver.max_outer = 1;
    failing.dual.solver.max_newton_per_stage = 1;
    for (const core::PlannerConfig* c : {&cfg, &failing, &cfg}) {
      gp::SolveRecord ra, rb;
      auto da = core::ReplanPart(a, v1, rates, *c, &ra);
      auto db = core::ReplanPart(b, v1, rates, *c, &rb);
      ExpectSameRecord(ra, rb);
      ASSERT_EQ(da.ok(), db.ok());
      if (c == &failing && r.gp) {
        EXPECT_FALSE(da.ok()) << "the tight budget no longer fails";
      }
      if (da.ok()) {
        EXPECT_TRUE(SameDabBits(*da, *db));
      } else {
        EXPECT_EQ(da.status().ToString(), db.status().ToString());
      }
    }
  }
}

TEST_F(ThreadedDiffTest, InvalidThreadConfigsAreRejected) {
  {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 1, -1);
    EXPECT_FALSE(RunSimulation(queries_, traces_, rates_, c).ok());
  }
  // rt_fail_at counts pool jobs; threads = 0 dispatches none, so any
  // other value than 0 would be a hook that silently never fires.
  for (int64_t fail_at : {3, -1}) {
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 1, 0);
    c.rt_fail_at = fail_at;
    EXPECT_FALSE(RunSimulation(queries_, traces_, rates_, c).ok())
        << "rt_fail_at=" << fail_at;
  }
}

TEST_F(ThreadedDiffTest, SeriesRecordingMatchesVirtualClockOracle) {
  // Every event is emitted on the event loop in serial order, so a
  // series recorder observing a threaded run folds the oracle's stream:
  // the series JSONL is byte-equal, and the canonicalized trace passes
  // the checker's alerting-mode replay against that series.
  auto run = [&](int threads, obs::TraceFile* trace) {
    obs::SeriesConfig sc;
    sc.window_ticks = 5;
    sc.breakdown = true;
    auto rules = obs::ParseSloRules(
        "sim.coordinator.refreshes > 3 for 2; sim.run.live_queries < 1",
        obs::SeriesMetricNames());
    EXPECT_TRUE(rules.ok()) << rules.status().ToString();
    sc.rules = std::move(rules).value();
    obs::SeriesRecorder recorder(sc);
    obs::TraceSink sink;
    SimConfig c = Config(core::AssignmentMethod::kDualDab, 1, threads);
    c.trace = &sink;
    c.series = &recorder;
    auto m = RunSimulation(queries_, traces_, rates_, c);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    *trace = sink.Collect();
    if (threads > 0) {
      Status canon = obs::CanonicalizeThreadedTrace(trace);
      EXPECT_TRUE(canon.ok()) << canon.ToString();
    }
    return recorder.file();
  };
  obs::TraceFile oracle_trace;
  const obs::SeriesFile oracle = run(0, &oracle_trace);
  ASSERT_TRUE(oracle.has_totals);
  ASSERT_FALSE(oracle.alerts.empty());  // the rule actually fires
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::TraceFile trace;
    const obs::SeriesFile got = run(threads, &trace);
    EXPECT_EQ(obs::SeriesToJsonLines(got), obs::SeriesToJsonLines(oracle));
    EXPECT_EQ(obs::TraceToJsonLines(trace),
              obs::TraceToJsonLines(oracle_trace));
    obs::TraceCheckOptions options;
    options.series = &got;
    auto report = obs::CheckTrace(trace, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->ToText(trace);
  }
}

}  // namespace
}  // namespace polydab::sim
