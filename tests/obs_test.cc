// Tests for the src/obs/ telemetry subsystem: instrument accuracy,
// registry semantics, ScopedTimer nesting, the RunReport JSON-lines
// round-trip, the null-registry (telemetry off) path, and JSON number
// formatting.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "record_test_util.h"

namespace polydab::obs {
namespace {

TEST(CounterTest, IncAndAdd) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Inc();
  c.Inc();
  c.Add(40);
  EXPECT_EQ(c.value(), 42);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, ExactStatistics) {
  Histogram h;
  h.Record(0.002);
  h.Record(0.010);
  h.Record(0.100);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 0.112);
  EXPECT_DOUBLE_EQ(h.min(), 0.002);
  EXPECT_DOUBLE_EQ(h.max(), 0.100);
  EXPECT_NEAR(h.mean(), 0.112 / 3.0, 1e-15);
}

TEST(HistogramTest, QuantileExactAtEndpoints) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 0.001);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.100);
}

TEST(HistogramTest, QuantilesOnUniformSyntheticData) {
  // 1..1000 recorded once each; geometric buckets are ~19% wide, so any
  // interior quantile must land within ~19% of the exact order statistic.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  for (double q : {0.10, 0.25, 0.50, 0.90, 0.99}) {
    const double exact = 1.0 + q * 999.0;
    const double approx = h.Quantile(q);
    EXPECT_NEAR(approx, exact, 0.19 * exact) << "q=" << q;
    EXPECT_GE(approx, h.min());
    EXPECT_LE(approx, h.max());
  }
}

TEST(HistogramTest, SingleSampleQuantilesCollapseToIt) {
  Histogram h;
  h.Record(0.042);
  for (double q : {0.0, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 0.042) << "q=" << q;
  }
}

TEST(HistogramTest, EmptyQuantileIsZeroForAnyQ) {
  Histogram h;
  for (double q : {-1.0, 0.0, 0.5, 1.0, 2.0}) {
    EXPECT_EQ(h.Quantile(q), 0.0) << "q=" << q;
  }
}

TEST(HistogramTest, SingleSampleQuantileIgnoresBucketGeometry) {
  // Regression: with one sample, interior quantiles used to fall through
  // bucket interpolation (frac = 0 yields the bucket's lower bound). Any
  // quantile of a single sample is that sample — even far outside the
  // bucket range, where the containing bucket spans decades.
  Histogram huge;
  huge.Record(1e30);  // clamps into the last geometric bucket
  EXPECT_DOUBLE_EQ(huge.Quantile(0.5), 1e30);
  Histogram zero;
  zero.Record(0.0);  // below kMinValue, lands in bucket 0
  EXPECT_DOUBLE_EQ(zero.Quantile(0.5), 0.0);
  Histogram tiny;
  tiny.Record(3e-9);  // inside the geometric range
  for (double q : {0.01, 0.37, 0.99}) {
    EXPECT_DOUBLE_EQ(tiny.Quantile(q), 3e-9) << "q=" << q;
  }
}

TEST(HistogramTest, NegativeAndNanSamplesClampToZero) {
  Histogram h;
  h.Record(-5.0);
  h.Record(std::nan(""));
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(HistogramTest, HugeValuesClampToLastBucket) {
  Histogram h;
  h.Record(1e30);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 1e30);
  EXPECT_GE(h.Quantile(1.0), h.Quantile(0.5));
}

TEST(RegistryTest, LookupsReturnStablePointers) {
  MetricRegistry reg;
  Counter* c1 = reg.GetCounter("a.b.c");
  Counter* c2 = reg.GetCounter("a.b.c");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.GetGauge("a.b.g");
  EXPECT_EQ(g1, reg.GetGauge("a.b.g"));
  Histogram* h1 = reg.GetHistogram("a.b.h");
  EXPECT_EQ(h1, reg.GetHistogram("a.b.h"));
}

TEST(RegistryTest, EntriesAreNameOrdered) {
  MetricRegistry reg;
  reg.GetCounter("z.last");
  reg.GetGauge("a.first");
  reg.GetHistogram("m.middle");
  std::vector<MetricRegistry::Entry> entries = reg.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "a.first");
  EXPECT_EQ(entries[0].kind, InstrumentKind::kGauge);
  EXPECT_EQ(entries[1].name, "m.middle");
  EXPECT_EQ(entries[1].kind, InstrumentKind::kHistogram);
  EXPECT_EQ(entries[2].name, "z.last");
  EXPECT_EQ(entries[2].kind, InstrumentKind::kCounter);
}

TEST(ScopedTimerTest, RecordsElapsedSeconds) {
  Histogram h;
  {
    ScopedTimer t(&h);
  }
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.max(), 0.0);
  EXPECT_LT(h.max(), 60.0);  // sanity: scope exit is not a minute away
}

TEST(ScopedTimerTest, StopIsIdempotentAndReturnsElapsed) {
  Histogram h;
  ScopedTimer t(&h);
  const double first = t.Stop();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(t.Stop(), 0.0);  // second stop records nothing
  EXPECT_EQ(h.count(), 1);
}

TEST(ScopedTimerTest, NestedTimersRecordIndependently) {
  Histogram outer_h, inner_h;
  {
    ScopedTimer outer(&outer_h);
    {
      ScopedTimer inner(&inner_h);
    }
    EXPECT_EQ(inner_h.count(), 1);
    EXPECT_EQ(outer_h.count(), 0);  // outer still running
  }
  EXPECT_EQ(outer_h.count(), 1);
  // The inner scope is strictly contained in the outer one.
  EXPECT_LE(inner_h.max(), outer_h.max());
}

TEST(ScopedTimerTest, NullHistogramIsInert) {
  // The telemetry-off path: no clock read, no recording, Stop returns 0.
  ScopedTimer t(nullptr);
  EXPECT_EQ(t.Stop(), 0.0);
}

TEST(NullRegistryTest, InstrumentedPatternRunsWithoutRegistry) {
  // The pattern every instrumented layer uses: cache pointers from a
  // nullable registry, branch on null at each record site. With a null
  // registry nothing is created and the guarded sites are no-ops.
  MetricRegistry* reg = nullptr;
  Counter* events = reg != nullptr ? reg->GetCounter("x.events") : nullptr;
  Histogram* lat = reg != nullptr ? reg->GetHistogram("x.lat") : nullptr;
  for (int i = 0; i < 1000; ++i) {
    ScopedTimer t(lat);
    if (events != nullptr) events->Inc();
  }
  SUCCEED();
}

RunReport MakeSampleReport() {
  MetricRegistry reg;
  reg.GetCounter("sim.coordinator.refreshes")->Add(12345);
  reg.GetGauge("sim.fidelity.mean_loss_pct")->Set(0.372915);
  Histogram* h = reg.GetHistogram("gp.solver.solve_seconds");
  h->Record(0.0021);
  h->Record(0.0043);
  h->Record(0.0179);
  RunReport report = RunReport::FromRegistry(reg);
  report.info["tool"] = "obs_test";
  report.info["config"] = "method=dual mu=5 \"quoted\\path\"";
  return report;
}

TEST(RunReportTest, FromRegistrySnapshotsEveryInstrument) {
  RunReport report = MakeSampleReport();
  ASSERT_EQ(report.entries.size(), 3u);
  const RunReport::Entry* c = report.Find("sim.coordinator.refreshes");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, InstrumentKind::kCounter);
  EXPECT_EQ(c->counter_value, 12345);
  const RunReport::Entry* g = report.Find("sim.fidelity.mean_loss_pct");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->gauge_value, 0.372915);
  const RunReport::Entry* h = report.Find("gp.solver.solve_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3);
  EXPECT_DOUBLE_EQ(h->sum, 0.0021 + 0.0043 + 0.0179);
  EXPECT_DOUBLE_EQ(h->min, 0.0021);
  EXPECT_DOUBLE_EQ(h->max, 0.0179);
  EXPECT_EQ(report.Find("no.such.metric"), nullptr);
}

TEST(RunReportTest, JsonLinesRoundTripIsExact) {
  const RunReport report = MakeSampleReport();
  const std::string text = report.ToJsonLines();
  auto parsed = RunReport::ParseJsonLines(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->info, report.info);
  ASSERT_EQ(parsed->entries.size(), report.entries.size());
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const RunReport::Entry& a = report.entries[i];
    const RunReport::Entry& b = parsed->entries[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.counter_value, b.counter_value);
    EXPECT_EQ(a.gauge_value, b.gauge_value);  // bit-exact double round-trip
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p90, b.p90);
    EXPECT_EQ(a.p99, b.p99);
  }
  // Re-serializing the parsed report reproduces the bytes.
  EXPECT_EQ(parsed->ToJsonLines(), text);
}

TEST(RunReportTest, ReaderRejectsNonIntegersAndUnknownKeys) {
  testing_util::ExpectStrictRecords(
      MakeSampleReport().ToJsonLines(),
      {{"counter", "value", false}, {"histogram", "count", false}},
      {"info", "counter", "gauge", "histogram"},
      [](const std::string& text) {
        return RunReport::ParseJsonLines(text).status();
      });
}

TEST(RunReportTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(RunReport::ParseJsonLines("not json").ok());
  EXPECT_FALSE(RunReport::ParseJsonLines("{\"type\":\"counter\"}").ok());
  EXPECT_FALSE(
      RunReport::ParseJsonLines("{\"type\":\"bogus\",\"name\":\"x\"}").ok());
}

TEST(RunReportTest, ToTextMentionsEveryInstrument) {
  const RunReport report = MakeSampleReport();
  const std::string text = report.ToText();
  for (const RunReport::Entry& e : report.entries) {
    EXPECT_NE(text.find(e.name), std::string::npos) << e.name;
  }
}

TEST(HistogramTest, ConcurrentRecordsKeepExactMinMax) {
  // Regression: min/max used to be maintained with a read-then-store on
  // the "still at the empty sentinel" fast path, so two first-recorders
  // could both see the sentinel and the smaller/larger value win the
  // last-write race. The compare-exchange loops must make min/max exact
  // under contention, every repetition.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  for (int rep = 0; rep < 20; ++rep) {
    Histogram h;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&h, t] {
        // Thread t covers [t*kPerThread+1, (t+1)*kPerThread]; the global
        // extremes (1 and kThreads*kPerThread) belong to different
        // threads, so both races are exercised.
        for (int i = 1; i <= kPerThread; ++i) {
          h.Record(static_cast<double>(t * kPerThread + i));
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(h.count(), kThreads * kPerThread);
    EXPECT_EQ(h.min(), 1.0) << "rep=" << rep;
    EXPECT_EQ(h.max(), static_cast<double>(kThreads * kPerThread))
        << "rep=" << rep;
  }
}

TEST(HistogramTest, QuantileIsMonotoneInQ) {
  // Property: for any recorded multiset, q1 <= q2 implies
  // Quantile(q1) <= Quantile(q2), and every quantile stays inside
  // [min(), max()]. Randomized sample sets across several scales and
  // sizes (deterministic seed).
  std::mt19937_64 rng(20260809);
  for (int trial = 0; trial < 50; ++trial) {
    Histogram h;
    const int n = 1 + static_cast<int>(rng() % 500);
    std::uniform_real_distribution<double> mag(-9.0, 9.0);
    for (int i = 0; i < n; ++i) {
      h.Record(std::pow(10.0, mag(rng)));
    }
    double prev = h.Quantile(0.0);
    for (int step = 1; step <= 100; ++step) {
      const double q = step / 100.0;
      const double v = h.Quantile(q);
      EXPECT_GE(v, prev) << "trial=" << trial << " q=" << q;
      EXPECT_GE(v, h.min()) << "trial=" << trial << " q=" << q;
      EXPECT_LE(v, h.max()) << "trial=" << trial << " q=" << q;
      prev = v;
    }
  }
}

TEST(RegistryTest, EntriesStayNameOrderedUnderAnyRegistrationOrder) {
  // Property: Entries() is sorted by name no matter the registration
  // order or instrument kind mix — the stability every serialized report
  // and per-window series sample depends on.
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) {
    names.push_back("prop.metric." + std::to_string((i * 7919) % 1000));
  }
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(names.begin(), names.end(), rng);
    MetricRegistry reg;
    for (size_t i = 0; i < names.size(); ++i) {
      switch (i % 3) {
        case 0: reg.GetCounter(names[i]); break;
        case 1: reg.GetGauge(names[i]); break;
        default: reg.GetHistogram(names[i]); break;
      }
    }
    const std::vector<MetricRegistry::Entry> entries = reg.Entries();
    ASSERT_EQ(entries.size(), names.size());
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1].name, entries[i].name) << "trial=" << trial;
    }
  }
}

TEST(TraceSinkTest, ConcurrentEmitsKeepIdOrder) {
  // Regression (real-thread lane runtime, docs/CONCURRENCY.md): Emit
  // used to draw the event id from the atomic counter *outside* the
  // buffer lock, so two racing emitters could append their events in the
  // opposite order of their ids — a buffer whose id sequence is not
  // monotone, which broke the canonical re-sort pass's id-order
  // assumptions. Ids must be assigned inside the critical section:
  // buffer order == id order == 1..N, whatever the thread interleaving.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  TraceSink sink;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceEvent e;
        e.time = static_cast<double>(i);
        e.kind = TraceEventKind::kRefreshEmitted;
        e.query = t;
        sink.Emit(e);
      }
    });
  }
  for (auto& t : threads) t.join();
  const TraceFile trace = sink.Collect();
  ASSERT_EQ(trace.events.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 0; i < trace.events.size(); ++i) {
    ASSERT_EQ(trace.events[i].id, i + 1) << "buffer position " << i;
  }
}

TEST(TraceSinkTest, ConcurrentStreamedEmitsKeepFileIdOrder) {
  // The streaming flavor of the regression above: with StreamTo active,
  // Emit renders and appends the JSONL line while still holding the
  // lock, so the flushed file must replay with the same monotone id
  // sequence a captured buffer has.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  const std::string path =
      ::testing::TempDir() + "/concurrent_stream_trace.jsonl";
  {
    TraceSink sink;
    ASSERT_TRUE(sink.StreamTo(path).ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&sink, t] {
        for (int i = 0; i < kPerThread; ++i) {
          TraceEvent e;
          e.time = static_cast<double>(i);
          e.kind = TraceEventKind::kRefreshEmitted;
          e.query = t;
          sink.Emit(e);
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_TRUE(sink.Finish().ok());
  }
  Result<TraceFile> loaded = LoadTraceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->events.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 0; i < loaded->events.size(); ++i) {
    ASSERT_EQ(loaded->events[i].id, i + 1) << "file position " << i;
  }
}

/// JsonNumber as it was written over printf and strtod; the to_chars form
/// must print every double to the same bytes.
std::string PrintfJsonNumber(double v) {
  if (v >= -9007199254740992.0 && v <= 9007199254740992.0) {
    const long long i = static_cast<long long>(v);
    if (static_cast<double>(i) == v) {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%lld", i);
      return buf;
    }
  }
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    char* end = nullptr;
    if (std::strtod(buf, &end) == v) return buf;
  }
  return buf;
}

TEST(JsonNumberTest, MatchesPrintfFormOnEveryClassOfDouble) {
  std::vector<double> values = {
      0.0, -0.0, 0.1, -0.1, 1.0 / 3.0, 123456.789, 1e21, 1e-7, 1e308,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      9007199254740992.0 - 1.0, 9007199254740992.0, 9007199254740992.0 + 2.0,
      -9007199254740992.0 - 2.0, -1.0, -42.0, -9007199254740991.0,
      9223372036854775808.0, -9223372036854775808.0};
  // Powers of two over the whole exponent range, subnormals included, and
  // the doubles on either side of each.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (double x : {p, std::nextafter(p, 0.0),
                     std::nextafter(p, std::numeric_limits<double>::max())}) {
      values.push_back(x);
      values.push_back(-x);
    }
  }
  // Seeded sweep: arbitrary bit patterns (every exponent, subnormals and
  // non-finite values among them), a few orders of magnitude around one,
  // and integers of every size.
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> mag(-12.0, 12.0);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    values.push_back(std::pow(10.0, mag(rng)) * ((rng() & 1) ? 1.0 : -1.0));
    values.push_back(
        static_cast<double>(static_cast<int64_t>(rng()) >> (rng() % 64)));
  }
  for (double v : values) {
    ASSERT_EQ(JsonNumber(v), PrintfJsonNumber(v))
        << "bits " << std::bit_cast<uint64_t>(v);
  }
}

}  // namespace
}  // namespace polydab::obs
