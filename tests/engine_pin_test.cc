// Engine pin: FNV-64 digests of seven seeded runs that together cross
// every engine mode — serial Dual-DAB, a 4-lane query_hash coordinator,
// the threaded solve pipeline on duplicated queries, chaos, churn with
// checkpoints and a WAL, periodic AAO and series recording. Each digest
// covers the rendered trace (canonicalized when threaded), the returned
// SimMetrics, the registry's instrument totals with wall-clock sums
// masked, and, where the run writes them, the series file and the
// checkpoint/WAL bytes. The constants were computed on the engine before
// RunSimulation became the Coordinator class, so a refactor of the
// engine that changes any observable byte fails here.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_canon.h"
#include "recovery/recovery.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/churn_gen.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::sim {
namespace {

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

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class EnginePinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    workload::TraceSetConfig tc;
    tc.num_items = 24;
    tc.num_ticks = 300;
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
    const std::string unique =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ckpt_path_ = ::testing::TempDir() + "engine_pin_" + unique + ".ckpt";
    wal_path_ = ::testing::TempDir() + "engine_pin_" + unique + ".wal";
    std::remove(ckpt_path_.c_str());
    std::remove(wal_path_.c_str());
  }

  void TearDown() override {
    std::remove(ckpt_path_.c_str());
    std::remove(wal_path_.c_str());
  }

  static SimConfig Base() {
    SimConfig c;
    c.planner.method = core::AssignmentMethod::kDualDab;
    c.planner.dual.mu = 5.0;
    c.seed = 3;
    return c;
  }

  /// Run \p config with a trace sink and a registry attached and digest
  /// everything the run made observable.
  uint64_t Digest(SimConfig config,
                  const std::vector<PolynomialQuery>& queries) {
    obs::TraceSink sink;
    obs::MetricRegistry registry;
    config.trace = &sink;
    config.registry = &registry;
    auto m = RunSimulation(queries, traces_, rates_, config);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok()) return 0;
    obs::TraceFile trace = sink.Collect();
    if (config.threads > 0) {
      Status canon = obs::CanonicalizeThreadedTrace(&trace);
      EXPECT_TRUE(canon.ok()) << canon.ToString();
    }
    Fnv64 d;
    d.MixString(obs::TraceToJsonLines(trace));
    for (int64_t v : {m->refreshes, m->recomputations, m->dab_change_messages,
                      m->user_notifications, m->solver_failures,
                      m->fault_drops, m->retransmits, m->duplicates_suppressed,
                      m->lease_expiries}) {
      d.MixInt(v);
    }
    d.MixDouble(m->mean_fidelity_loss_pct);
    d.MixDouble(m->degraded_query_seconds);
    for (const auto& entry : registry.Entries()) {
      d.MixString(entry.name);
      switch (entry.kind) {
        case obs::InstrumentKind::kCounter:
          d.MixInt(entry.counter->value());
          break;
        case obs::InstrumentKind::kGauge:
          d.MixDouble(entry.gauge->value());
          break;
        case obs::InstrumentKind::kHistogram:
          d.MixInt(entry.histogram->count());
          if (entry.name.find("seconds") == std::string::npos) {
            d.MixDouble(entry.histogram->sum());
          }
          break;
      }
    }
    if (config.series != nullptr) {
      d.MixString(obs::SeriesToJsonLines(config.series->file()));
    }
    if (config.recovery != nullptr) {
      d.MixString(ReadAll(ckpt_path_));
      d.MixString(ReadAll(wal_path_));
    }
    return d.h;
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
  std::string ckpt_path_;
  std::string wal_path_;
};

void ExpectPin(uint64_t got, uint64_t want) {
  EXPECT_EQ(got, want) << std::hex << "0x" << got << "ull";
}

TEST_F(EnginePinTest, SerialDualDab) {
  ExpectPin(Digest(Base(), queries_), 0xa5d96a0209eb05caull);
}

TEST_F(EnginePinTest, FourShardQueryHash) {
  SimConfig c = Base();
  c.coord_shards = 4;
  c.shard_policy = ShardPolicy::kQueryHash;
  ExpectPin(Digest(c, queries_), 0xc4e5ef11ccbf6867ull);
}

TEST_F(EnginePinTest, TwoThreadsOnDuplicatedQueries) {
  // Four users registered each of six queries: every refresh service has
  // bitwise-equal stale parts to group.
  std::vector<PolynomialQuery> dup;
  for (int copy = 0; copy < 4; ++copy) {
    for (size_t i = 0; i < 6; ++i) {
      PolynomialQuery q = queries_[i];
      q.id = static_cast<int>(dup.size());
      dup.push_back(std::move(q));
    }
  }
  SimConfig c = Base();
  c.threads = 2;
  ExpectPin(Digest(c, dup), 0x338e234bfa23a628ull);
}

TEST_F(EnginePinTest, Chaos) {
  SimConfig c = Base();
  c.coord_shards = 2;
  c.fault.drop_prob = 0.08;
  c.fault.dup_prob = 0.05;
  c.fault.reorder_prob = 0.05;
  c.fault.delay_spike_prob = 0.02;
  c.fault.crash_prob = 0.003;
  c.fault.stall_prob = 0.01;
  ExpectPin(Digest(c, queries_), 0xa5a1e30bbc439dadull);
}

TEST_F(EnginePinTest, ChurnWithCheckpointAndWal) {
  workload::ChurnConfig cc;
  cc.arrival_rate = 0.3;
  cc.mean_lifetime_s = 40.0;
  cc.modify_prob = 0.2;
  cc.horizon_s = 300;
  cc.num_items = 24;
  Rng churn_rng(8);
  auto schedule =
      workload::GenerateChurnSchedule(cc, traces_.Snapshot(0), &churn_rng);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  svc::AdmissionConfig ac;
  ac.policy = svc::AdmissionConfig::Policy::kDegrade;
  svc::QueryService service(ac, std::move(*schedule), nullptr,
                            PlanMaintenance::kIncremental);
  recovery::RecoveryConfig rc;
  rc.checkpoint_path = ckpt_path_;
  rc.wal_path = wal_path_;
  rc.interval_s = 60;
  SimConfig c = Base();
  c.coord_shards = 4;
  c.service = &service;
  c.recovery = &rc;
  // The checkpoint bytes in this pin are format v3's, digested raw: no
  // registry snapshot and no derived header fields, so same-seed runs
  // write the same file. The rest of the run's bytes are the
  // pre-Coordinator engine's.
  ExpectPin(Digest(c, queries_), 0x6eddb0f598221a01ull);
}

TEST_F(EnginePinTest, AaoPeriodic) {
  SimConfig c = Base();
  c.coord_shards = 2;
  c.aao_period_s = 60.0;
  ExpectPin(Digest(c, queries_), 0x4f5795271b78dbbcull);
}

TEST_F(EnginePinTest, SeriesRecording) {
  obs::SeriesConfig sc;
  sc.window_ticks = 5;
  sc.breakdown = true;
  auto rules = obs::ParseSloRules("sim.coordinator.refreshes > 3 for 2",
                                  obs::SeriesMetricNames());
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  sc.rules = std::move(rules).value();
  obs::SeriesRecorder recorder(sc);
  SimConfig c = Base();
  c.series = &recorder;
  ExpectPin(Digest(c, queries_), 0x70f1ba94e2417055ull);
}

}  // namespace
}  // namespace polydab::sim
