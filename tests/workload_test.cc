#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/validator.h"
#include "workload/churn_gen.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"
#include "workload/tick_source.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

namespace polydab::workload {
namespace {

TEST(TraceTest, GbmStaysPositiveAndStartsAtInitial) {
  Rng rng(1);
  TraceConfig tc;
  tc.kind = TraceKind::kGbmStock;
  tc.initial = 50.0;
  tc.num_ticks = 5000;
  tc.volatility = 5e-3;
  auto trace = GenerateTrace(tc, &rng);
  ASSERT_TRUE(trace.ok());
  EXPECT_DOUBLE_EQ((*trace)[0], 50.0);
  for (double v : *trace) EXPECT_GT(v, 0.0);
}

TEST(TraceTest, MonotonicDrifts) {
  Rng rng(2);
  TraceConfig tc;
  tc.kind = TraceKind::kMonotonic;
  tc.initial = 10.0;
  tc.drift = 0.01;
  tc.volatility = 0.0;
  tc.num_ticks = 100;
  auto trace = GenerateTrace(tc, &rng);
  ASSERT_TRUE(trace.ok());
  EXPECT_NEAR((*trace)[99], 10.0 + 0.01 * 99, 1e-9);
}

TEST(TraceTest, RandomWalkVarianceGrows) {
  Rng rng(3);
  TraceConfig tc;
  tc.kind = TraceKind::kRandomWalk;
  tc.initial = 100.0;
  tc.volatility = 1.0;
  tc.num_ticks = 10000;
  auto trace = GenerateTrace(tc, &rng);
  ASSERT_TRUE(trace.ok());
  // Empirical std-dev of one-tick steps should be near the configured 1.0.
  double sq = 0.0;
  for (int t = 1; t < tc.num_ticks; ++t) {
    const double d = (*trace)[static_cast<size_t>(t)] -
                     (*trace)[static_cast<size_t>(t - 1)];
    sq += d * d;
  }
  EXPECT_NEAR(std::sqrt(sq / (tc.num_ticks - 1)), 1.0, 0.05);
}

TEST(TraceTest, RejectsBadConfig) {
  Rng rng(4);
  TraceConfig tc;
  tc.num_ticks = 0;
  EXPECT_FALSE(GenerateTrace(tc, &rng).ok());
  tc.num_ticks = 10;
  tc.initial = -5.0;
  EXPECT_FALSE(GenerateTrace(tc, &rng).ok());
}

TEST(TraceTest, TraceSetShapesAndSnapshot) {
  Rng rng(5);
  TraceSetConfig cfg;
  cfg.num_items = 7;
  cfg.num_ticks = 64;
  auto set = GenerateTraceSet(cfg, &rng);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->num_items(), 7u);
  Vector snap = set->Snapshot(10);
  ASSERT_EQ(snap.size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_DOUBLE_EQ(snap[i], set->ValueAt(i, 10));
  }
}

TEST(TraceTest, DeterministicGivenSeed) {
  TraceSetConfig cfg;
  cfg.num_items = 3;
  cfg.num_ticks = 100;
  Rng a(42), b(42);
  auto s1 = GenerateTraceSet(cfg, &a);
  auto s2 = GenerateTraceSet(cfg, &b);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(s1->traces[i], s2->traces[i]);
  }
}

TEST(RateEstimatorTest, MonotonicRateRecovered) {
  Rng rng(6);
  TraceConfig tc;
  tc.kind = TraceKind::kMonotonic;
  tc.initial = 10.0;
  tc.drift = 0.02;
  tc.volatility = 0.0;
  tc.num_ticks = 1000;
  TraceSet set;
  set.num_ticks = tc.num_ticks;
  set.traces.push_back(*GenerateTrace(tc, &rng));
  auto rates = EstimateRates(set, 60);
  ASSERT_TRUE(rates.ok());
  EXPECT_NEAR((*rates)[0], 0.02, 1e-6);
}

TEST(RateEstimatorTest, StaticItemHasZeroRate) {
  TraceSet set;
  set.num_ticks = 500;
  set.traces.push_back(Vector(500, 7.0));
  auto rates = EstimateRates(set, 60);
  ASSERT_TRUE(rates.ok());
  EXPECT_DOUBLE_EQ((*rates)[0], 0.0);
}

TEST(RateEstimatorTest, RejectsShortTraceAndBadInterval) {
  TraceSet set;
  set.num_ticks = 30;
  set.traces.push_back(Vector(30, 1.0));
  EXPECT_FALSE(EstimateRates(set, 60).ok());
  EXPECT_FALSE(EstimateRates(set, 0).ok());
}

TEST(RateEstimatorTest, UnitRates) {
  Vector r = UnitRates(5);
  ASSERT_EQ(r.size(), 5u);
  for (double v : r) EXPECT_DOUBLE_EQ(v, 1.0);
}

class QueryGenTest : public ::testing::Test {
 protected:
  QueryGenConfig cfg_;
  Vector initial_ = Vector(100, 50.0);
};

TEST_F(QueryGenTest, PortfolioQueriesArePpqsWithExpectedShape) {
  Rng rng(7);
  auto queries = GeneratePortfolioQueries(50, cfg_, initial_, &rng);
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->size(), 50u);
  double total_items = 0.0;
  for (const auto& q : *queries) {
    EXPECT_TRUE(q.IsPositiveCoefficient());
    EXPECT_EQ(q.p.Degree(), 2);
    EXPECT_GT(q.qab, 0.0);
    EXPECT_NEAR(q.qab, 0.01 * q.p.Evaluate(initial_), 1e-9);
    total_items += static_cast<double>(q.p.Variables().size());
  }
  // 6-7 bilinear terms under the 80-20 model reuse hot items, so the
  // average distinct-item count sits around the paper's 12-14 or below.
  EXPECT_GT(total_items / 50.0, 5.0);
  EXPECT_LT(total_items / 50.0, 15.0);
}

TEST_F(QueryGenTest, EightyTwentySkew) {
  Rng rng(8);
  auto queries = GeneratePortfolioQueries(200, cfg_, initial_, &rng);
  ASSERT_TRUE(queries.ok());
  int hot = 0, total = 0;
  for (const auto& q : *queries) {
    for (VarId v : q.p.Variables()) {
      ++total;
      if (v < 20) ++hot;  // group 1 = first 20% of 100 items
    }
  }
  const double frac = static_cast<double>(hot) / total;
  EXPECT_GT(frac, 0.5);  // hot items dominate
  EXPECT_LT(frac, 0.95);
}

TEST_F(QueryGenTest, IndependentArbitrageHasDisjointParts) {
  Rng rng(9);
  auto queries = GenerateArbitrageQueries(30, cfg_, initial_, false, &rng);
  ASSERT_TRUE(queries.ok());
  for (const auto& q : *queries) {
    EXPECT_FALSE(q.IsPositiveCoefficient());
    Polynomial p1, p2;
    q.p.SplitSigns(&p1, &p2);
    EXPECT_TRUE(p1.IsIndependentOf(p2));
    EXPECT_GT(q.qab, 0.0);
  }
}

TEST_F(QueryGenTest, DependentArbitrageSharesUniverse) {
  Rng rng(10);
  auto queries = GenerateArbitrageQueries(50, cfg_, initial_, true, &rng);
  ASSERT_TRUE(queries.ok());
  int with_overlap = 0;
  for (const auto& q : *queries) {
    Polynomial p1, p2;
    q.p.SplitSigns(&p1, &p2);
    if (!p1.IsIndependentOf(p2)) ++with_overlap;
  }
  // Hot-item reuse makes overlap common (not guaranteed per query).
  EXPECT_GT(with_overlap, 10);
}

TEST_F(QueryGenTest, RejectsBadConfig) {
  Rng rng(11);
  QueryGenConfig bad = cfg_;
  bad.num_items = 2;
  EXPECT_FALSE(GeneratePortfolioQueries(1, bad, initial_, &rng).ok());
  bad = cfg_;
  bad.min_pairs = 0;
  EXPECT_FALSE(GeneratePortfolioQueries(1, bad, initial_, &rng).ok());
  EXPECT_FALSE(
      GeneratePortfolioQueries(1, cfg_, Vector(10, 1.0), &rng).ok());
}


TEST(RateEstimatorTest, EwmaWeighsRecentMovement) {
  // First half static, second half moving: EWMA must exceed the plain
  // average (which dilutes the active half with the quiet one).
  TraceSet set;
  set.num_ticks = 1200;
  Vector v(1200, 50.0);
  for (int t = 600; t < 1200; ++t) {
    v[static_cast<size_t>(t)] = 50.0 + 0.1 * (t - 600);
  }
  set.traces.push_back(std::move(v));
  auto mean = EstimateRates(set, 60);
  auto ewma = EstimateRatesEwma(set, 60, 0.3);
  ASSERT_TRUE(mean.ok());
  ASSERT_TRUE(ewma.ok());
  EXPECT_GT((*ewma)[0], (*mean)[0]);
  EXPECT_NEAR((*ewma)[0], 0.1, 0.02);  // converges to the active rate
}

TEST(RateEstimatorTest, EwmaRejectsBadAlpha) {
  TraceSet set;
  set.num_ticks = 200;
  set.traces.push_back(Vector(200, 1.0));
  EXPECT_FALSE(EstimateRatesEwma(set, 60, 0.0).ok());
  EXPECT_FALSE(EstimateRatesEwma(set, 60, 1.5).ok());
}

TEST(RateEstimatorTest, QuantileUpperBoundsMean) {
  Rng rng(17);
  TraceSetConfig tc;
  tc.num_items = 5;
  tc.num_ticks = 3000;
  auto set = GenerateTraceSet(tc, &rng);
  ASSERT_TRUE(set.ok());
  auto mean = EstimateRates(*set, 60);
  auto p95 = EstimateRatesQuantile(*set, 60, 0.95);
  ASSERT_TRUE(mean.ok());
  ASSERT_TRUE(p95.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_GE((*p95)[i], (*mean)[i] * 0.99);
  }
  EXPECT_FALSE(EstimateRatesQuantile(*set, 60, 1.5).ok());
}

TEST(RateEstimatorTest, TrailingRemainderParticipates) {
  // 10 ticks sampled every 4: full windows [0,4] and [4,8], then a 1-tick
  // remainder [8,9]. All movement sits in the remainder, which the
  // pre-fix estimators silently dropped (every rate would be 0).
  TraceSet set;
  set.num_ticks = 10;
  Vector v(10, 0.0);
  v[9] = 5.0;
  set.traces.push_back(std::move(v));

  // Samples: 0, 0, then 5 / 1 tick = 5 for the remainder.
  auto mean = EstimateRates(set, 4);
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ((*mean)[0], 5.0 / 3.0);

  // The remainder folds in last: 0 -> 0 -> 0.5 * 5 + 0.5 * 0.
  auto ewma = EstimateRatesEwma(set, 4, 0.5);
  ASSERT_TRUE(ewma.ok());
  EXPECT_DOUBLE_EQ((*ewma)[0], 2.5);

  // ...and joins the quantile's sample set as its maximum.
  auto max = EstimateRatesQuantile(set, 4, 1.0);
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ((*max)[0], 5.0);
}

TEST(RateEstimatorTest, ExactBoundaryAddsNoRemainderSample) {
  // 9 ticks every 4: windows [0,4] and [4,8] land exactly on the last
  // tick, so there is no remainder sample. Hand-computed:
  // |8-0|/4 = 2 and |2-8|/4 = 1.5, mean 1.75.
  TraceSet set;
  set.num_ticks = 9;
  Vector v(9, 0.0);
  v[4] = 8.0;
  v[8] = 2.0;
  // Intermediate ticks are irrelevant to interval sampling.
  set.traces.push_back(std::move(v));
  auto mean = EstimateRates(set, 4);
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ((*mean)[0], 1.75);
}

TEST(RateEstimatorTest, QuantileNearestRankBoundaries) {
  // interval=1 makes each consecutive diff one sample: {1, 2, 3, 4}.
  TraceSet set;
  set.num_ticks = 5;
  set.traces.push_back(Vector{0.0, 1.0, 3.0, 6.0, 10.0});

  auto at = [&](double q) {
    auto r = EstimateRatesQuantile(set, 1, q);
    EXPECT_TRUE(r.ok());
    return (*r)[0];
  };
  // Nearest rank: rank ceil(q * 4) clamped to [1, 4].
  EXPECT_DOUBLE_EQ(at(0.0), 1.0);   // minimum
  EXPECT_DOUBLE_EQ(at(0.25), 1.0);  // rank 1, not floor's samples[1]
  EXPECT_DOUBLE_EQ(at(0.5), 2.0);   // even n: the lower middle
  EXPECT_DOUBLE_EQ(at(0.75), 3.0);
  EXPECT_DOUBLE_EQ(at(1.0), 4.0);   // maximum, without needing the clamp
}

TEST(RateEstimatorTest, QuantileSingleSample) {
  // Two ticks, one sample: every quantile is that sample.
  TraceSet set;
  set.num_ticks = 2;
  set.traces.push_back(Vector{0.0, 7.0});
  for (double q : {0.0, 0.5, 1.0}) {
    auto r = EstimateRatesQuantile(set, 1, q);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ((*r)[0], 7.0) << "q=" << q;
  }
}

TEST(TraceTest, MomentumProducesLocalTrends) {
  // Lag-1 autocorrelation of returns should be clearly positive with the
  // AR(1) drift and near zero without it.
  auto lag1 = [](const Trace& tr) {
    std::vector<double> r;
    for (size_t t = 1; t < tr.size(); ++t) {
      r.push_back(std::log(tr[t] / tr[t - 1]));
    }
    double mean = 0.0;
    for (double x : r) mean += x;
    mean /= static_cast<double>(r.size());
    double num = 0.0, den = 0.0;
    for (size_t t = 1; t < r.size(); ++t) {
      num += (r[t] - mean) * (r[t - 1] - mean);
    }
    for (double x : r) den += (x - mean) * (x - mean);
    return num / den;
  };
  TraceConfig tc;
  tc.kind = TraceKind::kGbmStock;
  tc.num_ticks = 20000;
  tc.initial = 100.0;
  tc.volatility = 1e-3;
  Rng r1(5), r2(5);
  tc.trend_scale = 1.0;
  auto trending = GenerateTrace(tc, &r1);
  tc.trend_scale = 0.0;
  auto pure = GenerateTrace(tc, &r2);
  ASSERT_TRUE(trending.ok());
  ASSERT_TRUE(pure.ok());
  EXPECT_GT(lag1(*trending), 0.2);
  EXPECT_LT(std::fabs(lag1(*pure)), 0.05);
}

TEST(TraceTest, JumpsProduceHeavyTails) {
  TraceConfig tc;
  tc.kind = TraceKind::kGbmStock;
  tc.num_ticks = 50000;
  tc.initial = 100.0;
  tc.volatility = 1e-3;
  tc.trend_scale = 0.0;
  tc.jump_prob = 0.01;
  tc.jump_scale = 0.03;
  Rng rng(9);
  auto trace = GenerateTrace(tc, &rng);
  ASSERT_TRUE(trace.ok());
  int big_moves = 0;
  for (size_t t = 1; t < trace->size(); ++t) {
    if (std::fabs(std::log((*trace)[t] / (*trace)[t - 1])) > 5e-3) {
      ++big_moves;
    }
  }
  // ~1% of 50k ticks jump with magnitude >= 1.5%, far beyond 5 sigma of
  // the diffusive component.
  EXPECT_GT(big_moves, 200);
}

TEST(MixedSignGenTest, EveryQueryIsGenuinelyMixedSign) {
  Rng rng(77);
  QueryGenConfig qc;
  qc.num_items = 30;
  qc.min_pairs = 2;
  qc.max_pairs = 5;
  Vector initial(30, 100.0);
  auto qs = GenerateMixedSignQueries(50, qc, initial, &rng);
  ASSERT_TRUE(qs.ok());
  ASSERT_EQ(qs->size(), 50u);
  for (const PolynomialQuery& q : *qs) {
    EXPECT_GT(q.qab, 0.0);
    EXPECT_FALSE(q.p.IsZero());
    // "Mixed sign" must survive canonicalization: at least one positive
    // and one negative coefficient after like-term merging.
    bool pos = false, neg = false;
    for (const Monomial& m : q.p.terms()) {
      pos |= m.coef() > 0.0;
      neg |= m.coef() < 0.0;
    }
    EXPECT_TRUE(pos && neg) << "query " << q.id;
    EXPECT_FALSE(q.p.IsPositiveCoefficient());
    EXPECT_LE(q.p.Degree(), 3);
    for (VarId v : q.p.Variables()) {
      EXPECT_GE(v, 0);
      EXPECT_LT(static_cast<int>(v), qc.num_items);
    }
  }
}

TEST(MixedSignGenTest, TwoHundredRandomPlansValidate) {
  // Property sweep: every successfully planned mixed-sign query must pass
  // the independent Condition-1 validator (the same check the simulator
  // runs under paranoid_validation). This is the pipeline's fuzz oracle
  // for shapes beyond the paper's portfolio/arbitrage templates.
  Rng rng(78);
  QueryGenConfig qc;
  qc.num_items = 20;
  qc.min_pairs = 2;
  qc.max_pairs = 4;
  Vector initial(20);
  Vector rates(20);
  for (size_t i = 0; i < initial.size(); ++i) {
    initial[i] = rng.Uniform(20.0, 200.0);
    rates[i] = rng.Uniform(1e-4, 5e-2);
  }
  const core::AssignmentMethod methods[] = {
      core::AssignmentMethod::kDualDab,
      core::AssignmentMethod::kOptimalRefresh,
      core::AssignmentMethod::kWsDab,
  };
  const core::GeneralPqHeuristic heuristics[] = {
      core::GeneralPqHeuristic::kDifferentSum,
      core::GeneralPqHeuristic::kHalfAndHalf,
  };
  int planned = 0, attempted = 0;
  for (const auto method : methods) {
    for (const auto heuristic : heuristics) {
      auto qs = GenerateMixedSignQueries(34, qc, initial, &rng);
      ASSERT_TRUE(qs.ok());
      core::PlannerConfig config;
      config.method = method;
      config.heuristic = heuristic;
      for (const PolynomialQuery& q : *qs) {
        ++attempted;
        auto plan = core::PlanQueryParts(q, initial, rates, config);
        if (!plan.ok()) continue;  // solver failure on a nasty draw is ok
        ++planned;
        Status valid = core::ValidatePlan(*plan, initial);
        EXPECT_TRUE(valid.ok())
            << "method=" << core::Name(method)
            << " heuristic=" << core::Name(heuristic) << " query=" << q.id
            << ": " << valid.ToString();
      }
    }
  }
  EXPECT_EQ(attempted, 204);
  // The sweep only means something if the planner handles the bulk of the
  // draws; solver failures must be the exception.
  EXPECT_GE(planned, attempted * 3 / 4) << planned << "/" << attempted;
}

class ChurnGenTest : public ::testing::Test {
 protected:
  ChurnConfig Config() const {
    ChurnConfig cc;
    cc.num_items = 50;
    cc.horizon_s = 20000.0;
    cc.arrival_rate = 0.2;
    return cc;
  }
  Vector initial_ = Vector(50, 100.0);
};

TEST_F(ChurnGenTest, PoissonArrivalsMatchConfiguredRate) {
  Rng rng(21);
  auto ops = GenerateChurnSchedule(Config(), initial_, &rng);
  ASSERT_TRUE(ops.ok());
  std::vector<double> arrivals;
  for (const ChurnOp& op : *ops) {
    if (op.kind == ChurnOp::Kind::kRegister) arrivals.push_back(op.time);
  }
  // ~0.2/s over 20000 s = ~4000 registrations; a Poisson count's std-dev
  // is sqrt(4000) ~ 63, so 5% slack is > 3 sigma.
  const double n = static_cast<double>(arrivals.size());
  EXPECT_NEAR(n, 0.2 * 20000.0, 0.05 * 0.2 * 20000.0);
  // Mean inter-arrival time recovers 1 / rate.
  double gaps = 0.0;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    gaps += arrivals[i] - arrivals[i - 1];
  }
  EXPECT_NEAR(gaps / (n - 1.0), 1.0 / 0.2, 0.25);
}

TEST_F(ChurnGenTest, ZipfSkewsItemPopularityTowardItemZero) {
  Rng rng(22);
  ChurnConfig cc = Config();
  cc.zipf_s = 1.2;
  auto ops = GenerateChurnSchedule(cc, initial_, &rng);
  ASSERT_TRUE(ops.ok());
  std::map<VarId, int> hits;
  int total = 0;
  for (const ChurnOp& op : *ops) {
    if (op.kind != ChurnOp::Kind::kRegister) continue;
    for (VarId v : op.query.p.Variables()) {
      ++hits[v];
      ++total;
    }
  }
  ASSERT_GT(total, 1000);
  // Item 0 is the hottest symbol and the head dominates: the top 10% of
  // the 50-item universe draws well over its uniform 10% share.
  int head = 0;
  for (VarId v = 0; v < 5; ++v) head += hits[v];
  for (const auto& [v, count] : hits) {
    EXPECT_LE(count, hits[0]) << "item " << v << " hotter than item 0";
  }
  EXPECT_GT(static_cast<double>(head) / total, 0.4);
}

TEST_F(ChurnGenTest, UniformWhenZipfExponentIsZero) {
  Rng rng(23);
  ChurnConfig cc = Config();
  cc.zipf_s = 0.0;
  auto ops = GenerateChurnSchedule(cc, initial_, &rng);
  ASSERT_TRUE(ops.ok());
  std::map<VarId, int> hits;
  int total = 0;
  for (const ChurnOp& op : *ops) {
    if (op.kind != ChurnOp::Kind::kRegister) continue;
    for (VarId v : op.query.p.Variables()) {
      ++hits[v];
      ++total;
    }
  }
  int head = 0;
  for (VarId v = 0; v < 5; ++v) head += hits[v];
  // 5 of 50 items should carry ~10% of references, nowhere near the
  // Zipf head's share.
  EXPECT_LT(static_cast<double>(head) / total, 0.2);
}

TEST_F(ChurnGenTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  auto s1 = GenerateChurnSchedule(Config(), initial_, &a);
  auto s2 = GenerateChurnSchedule(Config(), initial_, &b);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(s1->size(), s2->size());
  for (size_t i = 0; i < s1->size(); ++i) {
    const ChurnOp& x = (*s1)[i];
    const ChurnOp& y = (*s2)[i];
    EXPECT_EQ(x.time, y.time) << i;
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.query_id, y.query_id) << i;
    EXPECT_EQ(x.new_qab, y.new_qab) << i;
    EXPECT_EQ(x.query.qab, y.query.qab) << i;
  }
}

TEST_F(ChurnGenTest, ScheduleIsOrderedAndLifecycleConsistent) {
  Rng rng(24);
  ChurnConfig cc = Config();
  cc.modify_prob = 0.5;
  cc.mean_lifetime_s = 200.0;
  auto ops = GenerateChurnSchedule(cc, initial_, &rng);
  ASSERT_TRUE(ops.ok());
  std::map<int, int> stage;  // 0 none, 1 registered, 2 modified, 3 gone
  int modifies = 0, deregs = 0;
  double prev = 0.0;
  for (const ChurnOp& op : *ops) {
    EXPECT_GE(op.time, prev);
    EXPECT_LE(op.time, cc.horizon_s);
    prev = op.time;
    switch (op.kind) {
      case ChurnOp::Kind::kRegister:
        EXPECT_EQ(stage[op.query.id], 0) << op.query.id;
        EXPECT_GE(op.query.id, cc.id_base);
        EXPECT_GT(op.query.qab, 0.0);
        stage[op.query.id] = 1;
        break;
      case ChurnOp::Kind::kModify:
        EXPECT_EQ(stage[op.query_id], 1) << op.query_id;
        EXPECT_GT(op.new_qab, 0.0);
        stage[op.query_id] = 2;
        ++modifies;
        break;
      case ChurnOp::Kind::kDeregister:
        EXPECT_GE(stage[op.query_id], 1) << op.query_id;
        EXPECT_LT(stage[op.query_id], 3) << op.query_id;
        stage[op.query_id] = 3;
        ++deregs;
        break;
    }
  }
  EXPECT_GT(modifies, 0);
  EXPECT_GT(deregs, 0);
}

TEST_F(ChurnGenTest, RejectsBadConfig) {
  ChurnConfig cc = Config();
  cc.arrival_rate = -1.0;
  EXPECT_FALSE(ValidateChurnConfig(cc).ok());
  cc = Config();
  cc.mean_lifetime_s = 0.0;
  EXPECT_FALSE(ValidateChurnConfig(cc).ok());
  cc = Config();
  cc.modify_prob = 1.5;
  EXPECT_FALSE(ValidateChurnConfig(cc).ok());
  cc = Config();
  cc.zipf_s = -0.5;
  EXPECT_FALSE(ValidateChurnConfig(cc).ok());
  cc = Config();
  cc.horizon_s = 0.0;
  EXPECT_FALSE(ValidateChurnConfig(cc).ok());
  cc = Config();
  cc.num_items = 1;
  EXPECT_FALSE(ValidateChurnConfig(cc).ok());
  cc = Config();
  cc.min_pairs = 0;
  EXPECT_FALSE(ValidateChurnConfig(cc).ok());
  cc = Config();
  cc.modify_scale_lo = 0.0;
  EXPECT_FALSE(ValidateChurnConfig(cc).ok());
  // A too-small snapshot is caught at generation time.
  Rng rng(25);
  EXPECT_FALSE(GenerateChurnSchedule(Config(), Vector(3, 1.0), &rng).ok());
}

TEST(TickSourceTest, TraceSetAdapterYieldsSnapshotsInOrder) {
  Rng rng(26);
  TraceSetConfig tc;
  tc.num_items = 6;
  tc.num_ticks = 40;
  auto set = GenerateTraceSet(tc, &rng);
  ASSERT_TRUE(set.ok());
  TraceSetTickSource source(&*set);
  EXPECT_EQ(source.num_items(), 6u);
  EXPECT_EQ(source.num_ticks_hint(), 40);
  Vector row;
  for (int t = 0; t < 40; ++t) {
    auto more = source.Next(&row);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more) << "tick " << t;
    ASSERT_EQ(row.size(), 6u);
    for (size_t i = 0; i < 6; ++i) {
      EXPECT_DOUBLE_EQ(row[i], set->ValueAt(i, t)) << t << "," << i;
    }
  }
  auto done = source.Next(&row);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(*done);
  // Rewind replays from tick 0.
  ASSERT_TRUE(source.Rewind().ok());
  auto again = source.Next(&row);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(*again);
  EXPECT_DOUBLE_EQ(row[0], set->ValueAt(0, 0));
}

TEST(TickSourceTest, FileSourceRoundTripsCsvAndRewinds) {
  Rng rng(27);
  TraceSetConfig tc;
  tc.num_items = 4;
  tc.num_ticks = 25;
  auto set = GenerateTraceSet(tc, &rng);
  ASSERT_TRUE(set.ok());
  const std::string path = ::testing::TempDir() + "/tick_source_rt.csv";
  ASSERT_TRUE(SaveTraceSetCsv(*set, path).ok());

  auto opened = FileTickSource::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  FileTickSource& source = **opened;
  EXPECT_EQ(source.num_items(), 4u);
  Vector row;
  for (int pass = 0; pass < 2; ++pass) {
    for (int t = 0; t < 25; ++t) {
      auto more = source.Next(&row);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      ASSERT_TRUE(*more) << "pass " << pass << " tick " << t;
      ASSERT_EQ(row.size(), 4u);
      for (size_t i = 0; i < 4; ++i) {
        // CSV serialization is %.17g: exact for doubles.
        EXPECT_EQ(row[i], set->ValueAt(i, t)) << t << "," << i;
      }
    }
    auto done = source.Next(&row);
    ASSERT_TRUE(done.ok());
    EXPECT_FALSE(*done);
    ASSERT_TRUE(source.Rewind().ok());
  }
}

TEST(TickSourceTest, FileSourceRejectsMissingAndMalformedInput) {
  EXPECT_FALSE(FileTickSource::Open("/nonexistent/ticks.csv").ok());
  const std::string path = ::testing::TempDir() + "/tick_source_bad.csv";
  {
    std::ofstream out(path);
    out << "10,20,30\n10,oops,30\n";
  }
  auto opened = FileTickSource::Open(path);
  ASSERT_TRUE(opened.ok());
  Vector row;
  auto first = (*opened)->Next(&row);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  EXPECT_FALSE((*opened)->Next(&row).ok());
}

/// Every row FileTickSource streams from \p path, or its error.
Result<std::vector<Vector>> StreamAll(const std::string& path) {
  POLYDAB_ASSIGN_OR_RETURN(auto source, FileTickSource::Open(path));
  std::vector<Vector> rows;
  Vector row;
  while (true) {
    POLYDAB_ASSIGN_OR_RETURN(const bool more, source->Next(&row));
    if (!more) return rows;
    rows.push_back(row);
  }
}

TEST(TickSourceTest, FileSourceReadsTheTraceIoDialect) {
  // `traces=` loads through LoadTraceSetCsv and `ingest=` streams through
  // FileTickSource: the same file must give both the same rows, or be
  // rejected by both.
  const struct {
    const char* name;
    const char* csv;
    bool valid;
  } cases[] = {
      {"comment_mid_file", "1,2\n# gap\n3,4\n", true},
      {"comment_then_header", "# quotes\nAAA,BBB\n1,2\n3,4\n", true},
      {"header_narrower_than_rows", "AAA,BBB,CCC\n1,2,3,4\n5,6,7,8\n",
       false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path =
        ::testing::TempDir() + "/dialect_" + c.name + ".csv";
    {
      std::ofstream out(path);
      out << c.csv;
    }
    auto loaded = LoadTraceSetCsv(path);
    auto streamed = StreamAll(path);
    ASSERT_EQ(loaded.ok(), c.valid) << loaded.status().ToString();
    ASSERT_EQ(streamed.ok(), c.valid) << streamed.status().ToString();
    if (!c.valid) continue;
    ASSERT_EQ(streamed->size(), static_cast<size_t>(loaded->num_ticks));
    for (size_t t = 0; t < streamed->size(); ++t) {
      ASSERT_EQ((*streamed)[t].size(), loaded->num_items());
      for (size_t i = 0; i < loaded->num_items(); ++i) {
        EXPECT_EQ((*streamed)[t][i], loaded->ValueAt(i, static_cast<int>(t)));
      }
    }
  }
}

}  // namespace
}  // namespace polydab::workload
