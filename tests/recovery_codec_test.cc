// Unit coverage for the durable-state codecs (src/recovery/,
// docs/RECOVERY.md): checkpoint block round-trips on real engine
// snapshots, the format's bytes pinned by digest, WAL record round-trips,
// the latest-complete-block and torn-trailing-block rules, a snapshot
// diff that names every field, and the strict-parse corruption
// diagnostics the format guarantees — truncated final line, unknown keys,
// version skew, digest mismatch and integers their field cannot hold are
// all InvalidArgument naming the line number, never a silent partial
// load. The service-layer state string (svc::QueryService::SnapshotState)
// gets the same strictness check.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "obs/metrics.h"
#include "recovery/checkpoint.h"
#include "recovery/codec.h"
#include "recovery/recovery.h"
#include "recovery/wal.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/churn_gen.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"

namespace polydab::recovery {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// Produces genuine on-disk artifacts by running the engine with the
/// checkpoint cadence on (no crash): a multi-block checkpoint file and a
/// WAL with row records. Fault injection is enabled so the snapshot
/// exercises the protocol-state sections too.
class RecoveryCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Paths carry the test name: ctest runs each case as its own
    // process, in parallel, all sharing TempDir.
    const std::string unique =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ckpt_path_ = ::testing::TempDir() + "recovery_codec_" + unique + ".ckpt";
    wal_path_ = ::testing::TempDir() + "recovery_codec_" + unique + ".wal";
    std::remove(ckpt_path_.c_str());
    std::remove(wal_path_.c_str());

    Rng rng(4242);
    workload::TraceSetConfig tc;
    tc.num_items = 16;
    tc.num_ticks = 90;
    traces_ = *workload::GenerateTraceSet(tc, &rng);
    rates_ = *workload::EstimateRates(traces_, 60);
    workload::QueryGenConfig qc;
    qc.num_items = 16;
    queries_ = *workload::GeneratePortfolioQueries(6, qc,
                                                   traces_.Snapshot(0), &rng);

    RecoveryConfig rc;
    rc.checkpoint_path = ckpt_path_;
    rc.wal_path = wal_path_;
    rc.interval_s = 30;
    sim::SimConfig config;
    config.seed = 7;
    config.fault.drop_prob = 0.05;
    config.recovery = &rc;
    auto m = sim::RunSimulation(queries_, traces_, rates_, config);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
  }

  void TearDown() override {
    std::remove(ckpt_path_.c_str());
    std::remove(wal_path_.c_str());
  }

  /// Expect LoadLatestCheckpoint to fail with a diagnostic carrying both
  /// the line number and the named cause.
  void ExpectCkptError(const std::string& text, int line,
                       const std::string& needle) {
    const std::string path = ckpt_path_ + ".bad";
    WriteAll(path, text);
    CheckpointState state;
    Status loaded = LoadLatestCheckpoint(path, &state);
    std::remove(path.c_str());
    ASSERT_FALSE(loaded.ok()) << "expected failure: " << needle;
    EXPECT_NE(loaded.ToString().find("line " + std::to_string(line)),
              std::string::npos)
        << loaded.ToString();
    EXPECT_NE(loaded.ToString().find(needle), std::string::npos)
        << loaded.ToString();
  }

  void ExpectWalError(const std::string& text, int line,
                      const std::string& needle) {
    const std::string path = wal_path_ + ".bad";
    WriteAll(path, text);
    std::vector<WalRecord> records;
    Status loaded = LoadWal(path, &records);
    std::remove(path.c_str());
    ASSERT_FALSE(loaded.ok()) << "expected failure: " << needle;
    EXPECT_NE(loaded.ToString().find("line " + std::to_string(line)),
              std::string::npos)
        << loaded.ToString();
    EXPECT_NE(loaded.ToString().find(needle), std::string::npos)
        << loaded.ToString();
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
  std::string ckpt_path_;
  std::string wal_path_;
};

TEST_F(RecoveryCodecTest, CheckpointRoundTripsFieldForField) {
  CheckpointState loaded;
  ASSERT_TRUE(LoadLatestCheckpoint(ckpt_path_, &loaded).ok());
  EXPECT_EQ(loaded.tick, 60);  // the latest block (ticks 1..89 run)
  EXPECT_FALSE(loaded.instruments.empty() && loaded.events.empty() &&
               loaded.queries.empty());

  const std::string copy_path = ckpt_path_ + ".copy";
  std::remove(copy_path.c_str());
  ASSERT_TRUE(WriteCheckpoint(loaded, copy_path).ok());
  CheckpointState reloaded;
  ASSERT_TRUE(LoadLatestCheckpoint(copy_path, &reloaded).ok());
  // Writing the loaded snapshot back out reproduces the source's latest
  // block byte for byte, digest footer included.
  const std::string source = ReadAll(ckpt_path_);
  const size_t last_block = source.rfind("{\"t\":\"hdr\"");
  ASSERT_NE(last_block, std::string::npos);
  EXPECT_EQ(ReadAll(copy_path), source.substr(last_block));
  std::remove(copy_path.c_str());

  std::string diffs;
  EXPECT_EQ(DiffCheckpoints(loaded, reloaded, 20, &diffs), 0) << diffs;
}

/// FNV-1a 64 over a string's bytes.
uint64_t Fnv64(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FileDigest(const std::string& path) { return Fnv64(ReadAll(path)); }

/// The checkpoint text with its wall-clock content cut out: the timing
/// histograms a registry-attached run records keep only their name and
/// count, and the block digests over them read 0.
std::string MaskWallClock(const std::string& text) {
  std::string out;
  for (std::string line : SplitLines(text)) {
    for (const char* name : {"gp.solver.solve_seconds",
                             "core.planner.plan_seconds",
                             "core.planner.replan_seconds"}) {
      if (line.find("\"name\":\"" + std::string(name) + "\"") !=
          std::string::npos) {
        line.resize(line.find(",\"sum\""));
      }
    }
    if (line.rfind("{\"t\":\"end\",\"digest\":", 0) == 0) {
      line.replace(20, line.find(',', 20) - 20, "0");
    }
    out += line;
    out += '\n';
  }
  return out;
}

TEST_F(RecoveryCodecTest, CheckpointBytesMatchParentDigest) {
  // The on-disk format is pinned byte for byte: these digests were
  // computed on the build before the record codecs derived from per-record
  // field lists, which wrote every key by hand.
  EXPECT_EQ(FileDigest(ckpt_path_), 0xf851f8378dc9c990ull);
  EXPECT_EQ(FileDigest(wal_path_), 0xad72ea0beb824520ull);

  // A 4-shard churn run with a registry attached covers what the fault
  // fixture does not: the service state string, the dynamic query index
  // flag and all three instrument kinds (the gauge is registered up
  // front, since the engine sets its own gauges only at the end). Its
  // timing histograms hold wall-clock values, so that checkpoint is
  // digested through MaskWallClock.
  const std::string ckpt = ckpt_path_ + ".churn";
  const std::string wal = wal_path_ + ".churn";
  std::remove(ckpt.c_str());
  std::remove(wal.c_str());
  workload::ChurnConfig cc;
  cc.arrival_rate = 0.3;
  cc.mean_lifetime_s = 40.0;
  cc.modify_prob = 0.1;
  cc.horizon_s = 90;
  cc.num_items = 16;
  Rng churn_rng(8);
  auto schedule =
      workload::GenerateChurnSchedule(cc, traces_.Snapshot(0), &churn_rng);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  svc::AdmissionConfig ac;
  ac.policy = svc::AdmissionConfig::Policy::kDegrade;
  svc::QueryService service(ac, std::move(*schedule), nullptr,
                            sim::PlanMaintenance::kIncremental);
  obs::MetricRegistry registry;
  registry.GetGauge("test.gauge")->Set(2.5);
  RecoveryConfig rc;
  rc.checkpoint_path = ckpt;
  rc.wal_path = wal;
  rc.interval_s = 30;
  sim::SimConfig config;
  config.seed = 7;
  config.coord_shards = 4;
  config.shard_policy = sim::ShardPolicy::kQueryHash;
  config.registry = &registry;
  config.service = &service;
  config.recovery = &rc;
  auto m = sim::RunSimulation(queries_, traces_, rates_, config);
  ASSERT_TRUE(m.ok()) << m.status().ToString();

  CheckpointState loaded;
  ASSERT_TRUE(LoadLatestCheckpoint(ckpt, &loaded).ok());
  EXPECT_TRUE(loaded.dqi_built);
  EXPECT_FALSE(loaded.service_state.empty());
  std::string kinds;
  for (const CheckpointInstrument& ins : loaded.instruments) {
    if (kinds.find(ins.kind) == std::string::npos) kinds += ins.kind;
  }
  EXPECT_EQ(kinds.size(), 3u) << kinds;
  EXPECT_EQ(Fnv64(MaskWallClock(ReadAll(ckpt))), 0xe8a2b9fc50507563ull);
  EXPECT_EQ(FileDigest(wal), 0xe1eb19a730783921ull);
  std::remove(ckpt.c_str());
  std::remove(wal.c_str());
}

TEST_F(RecoveryCodecTest, LoaderTakesLatestCompleteBlock) {
  // The 90-tick run with a 30 s cadence appended two blocks; tampering
  // an *earlier* block's bytes must not matter, because only the last
  // complete block is decoded and digest-checked.
  std::string text = ReadAll(ckpt_path_);
  const size_t first_hdr = text.find("\"t\":\"hdr\"");
  ASSERT_NE(first_hdr, std::string::npos);
  text.replace(text.find("\"tick\":30"), 9, "\"tick\":31");
  const std::string path = ::testing::TempDir() + "recovery_codec_prev.ckpt";
  WriteAll(path, text);
  CheckpointState state;
  Status loaded = LoadLatestCheckpoint(path, &state);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(state.tick, 60);
}

TEST_F(RecoveryCodecTest, TornTrailingBlockFallsBackToPreviousSnapshot) {
  // A crash mid-write leaves a header with no digest footer at the end
  // of the file; the loader must fall back to the previous snapshot.
  std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  std::string torn = JoinLines(lines);
  torn += lines[0];  // a fresh block header, then nothing
  torn += '\n';
  const std::string path = ::testing::TempDir() + "recovery_codec_torn.ckpt";
  WriteAll(path, torn);
  CheckpointState state;
  Status loaded = LoadLatestCheckpoint(path, &state);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(state.tick, 60);
}

TEST_F(RecoveryCodecTest, TruncatedFinalLineIsNamedError) {
  std::string text = ReadAll(ckpt_path_);
  const int last_line = static_cast<int>(SplitLines(text).size());
  text.resize(text.size() - 5);  // clip inside the digest footer
  ExpectCkptError(text, last_line, "truncated record at end of file");
}

TEST_F(RecoveryCodecTest, TamperedBlockFailsTheDigest) {
  std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  // Flip a value inside the *last* block (its header carries tick 60).
  bool flipped = false;
  for (std::string& line : lines) {
    const size_t at = line.find("\"tick\":60");
    if (at != std::string::npos) {
      line.replace(at, 9, "\"tick\":61");
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  ExpectCkptError(JoinLines(lines), static_cast<int>(lines.size()),
                  "ckpt digest mismatch");
}

TEST_F(RecoveryCodecTest, UnknownKeyIsNamedError) {
  std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  std::string& footer = lines.back();
  ASSERT_NE(footer.find("\"t\":\"end\""), std::string::npos);
  footer.insert(footer.find("\"digest\""), "\"zzz\":1,");
  ExpectCkptError(JoinLines(lines), static_cast<int>(lines.size()),
                  "unknown key 'zzz'");
}

TEST_F(RecoveryCodecTest, VersionSkewIsNamedErrorEvenWithAValidDigest) {
  // Re-sign the tampered block so the version check — not the digest —
  // is what rejects it: exactly what a snapshot written by a newer build
  // would look like.
  std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  int block_start = -1;
  for (int i = static_cast<int>(lines.size()) - 1; i >= 0; --i) {
    if (lines[i].find("\"t\":\"hdr\"") != std::string::npos) {
      block_start = i;
      break;
    }
  }
  ASSERT_GE(block_start, 0);
  const size_t at = lines[block_start].find("polydab.ckpt.v1");
  ASSERT_NE(at, std::string::npos);
  lines[block_start].replace(at, 15, "polydab.ckpt.v9");
  uint32_t digest = kFnv1a32Seed;
  for (size_t i = block_start; i + 1 < lines.size(); ++i) {
    digest = Fnv1a32(lines[i].data(), lines[i].size(), digest);
    digest = Fnv1a32("\n", 1, digest);
  }
  char footer[64];
  std::snprintf(footer, sizeof(footer),
                "{\"t\":\"end\",\"digest\":%u,\"n\":%zu}", digest,
                lines.size() - 1 - block_start);
  lines.back() = footer;
  ExpectCkptError(JoinLines(lines), block_start + 1,
                  "checkpoint version skew");
}

/// Index of the last block's header line.
int LastBlockStart(const std::vector<std::string>& lines) {
  for (int i = static_cast<int>(lines.size()) - 1; i >= 0; --i) {
    if (lines[i].find("\"t\":\"hdr\"") != std::string::npos) return i;
  }
  return -1;
}

/// Recompute the last block's digest footer after an edit, so the strict
/// field decode — not the digest — is what sees the edit.
void ResignLastBlock(std::vector<std::string>* lines) {
  const int start = LastBlockStart(*lines);
  uint32_t digest = kFnv1a32Seed;
  for (size_t i = static_cast<size_t>(start); i + 1 < lines->size(); ++i) {
    digest = Fnv1a32((*lines)[i].data(), (*lines)[i].size(), digest);
    digest = Fnv1a32("\n", 1, digest);
  }
  lines->back() = "{\"t\":\"end\",\"digest\":" + std::to_string(digest) +
                  ",\"n\":" + std::to_string(lines->size() - 1 - start) + "}";
}

TEST_F(RecoveryCodecTest, NonIntegralOrOutOfRangeIntegersAreNamedErrors) {
  // The latest block's header carries "tick":60. A value its int field
  // cannot hold is rejected by name, never truncated or cast.
  for (const char* bad : {"60.5", "1e300", "-1e300", "3000000000"}) {
    std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
    const int start = LastBlockStart(lines);
    ASSERT_GE(start, 0);
    const size_t at = lines[start].find("\"tick\":60,");
    ASSERT_NE(at, std::string::npos);
    lines[start].replace(at, 10, "\"tick\":" + std::string(bad) + ",");
    ResignLastBlock(&lines);
    ExpectCkptError(JoinLines(lines), start + 1, "key 'tick' holds");
  }
  // A bool field holds 0 or 1 only.
  std::vector<std::string> lines = SplitLines(ReadAll(ckpt_path_));
  const int start = LastBlockStart(lines);
  const size_t at = lines[start].find("\"fault\":1,");
  ASSERT_NE(at, std::string::npos);
  lines[start].replace(at, 10, "\"fault\":2,");
  ResignLastBlock(&lines);
  ExpectCkptError(JoinLines(lines), start + 1, "key 'fault' holds 2");
}

TEST_F(RecoveryCodecTest, DiffReportsEveryField) {
  CheckpointState a;
  ASSERT_TRUE(LoadLatestCheckpoint(ckpt_path_, &a).ok());
  ASSERT_TRUE(a.fault_mode);
  ASSERT_FALSE(a.queries.empty() || a.parts.empty() || a.events.empty() ||
               a.sources.empty() || a.item_fault.empty());
  CheckpointInstrument hist;
  hist.kind = 'h';
  hist.name = "test.hist";
  hist.raw_min = std::numeric_limits<double>::infinity();
  hist.raw_max = -std::numeric_limits<double>::infinity();
  a.instruments.push_back(hist);

  using Perturb = void (*)(CheckpointState*);
  const std::pair<const char*, Perturb> cases[] = {
      {"hdr.ckpt_end_id", [](CheckpointState* s) { s->ckpt_end_id += 1; }},
      {"q[0].reg", [](CheckpointState* s) { s->queries[0].slot.reg_tick += 1; }},
      {"q[0].dereg", [](CheckpointState* s) { s->queries[0].slot.dereg_tick = 5; }},
      {"q[0].dege",
       [](CheckpointState* s) { s->queries[0].slot.degrade_event += 1; }},
      {"part[0].slot", [](CheckpointState* s) { s->parts[0].slot += 1; }},
      {"part[0].part", [](CheckpointState* s) { s->parts[0].part += 1; }},
      {"part[0].pqab", [](CheckpointState* s) { s->parts[0].pqab *= 2.0; }},
      {"part[0].vars", [](CheckpointState* s) { s->parts[0].vars[0] += 1; }},
      {"part[0].sdab",
       [](CheckpointState* s) { s->parts[0].single_dab ^= true; }},
      {"part[0].nstale",
       [](CheckpointState* s) { s->parts[0].never_stale ^= true; }},
      {"ev[0].wait", [](CheckpointState* s) { s->events[0].wait += 1.0; }},
      {"ev[0].seq", [](CheckpointState* s) { s->events[0].seq += 1; }},
      {"items.home", [](CheckpointState* s) { s->items.item_home_shard[0] += 1; }},
      {"iq[0].q", [](CheckpointState* s) { s->items.item_queries[0].push_back(7); }},
      {"iq[0].s", [](CheckpointState* s) { s->items.item_shards[0].push_back(3); }},
      {"src[0].cu",
       [](CheckpointState* s) { s->sources[0].crashed_until += 1.0; }},
      {"src[0].ce", [](CheckpointState* s) { s->sources[0].crash_event += 1; }},
      {"src[0].nh",
       [](CheckpointState* s) { s->sources[0].next_heartbeat += 1.0; }},
      {"src[0].lc",
       [](CheckpointState* s) { s->sources[0].last_contact += 1.0; }},
      {"src[0].cte",
       [](CheckpointState* s) { s->sources[0].contact_event += 1; }},
      {"if[0].ns", [](CheckpointState* s) { s->item_fault[0].next_seq += 1; }},
      {"if[0].ds",
       [](CheckpointState* s) { s->item_fault[0].delivered_seq += 1; }},
      {"if[0].dr", [](CheckpointState* s) { s->item_fault[0].drop_seq += 1; }},
      {"if[0].de", [](CheckpointState* s) { s->item_fault[0].drop_eid += 1; }},
      {"if[0].exp",
       [](CheckpointState* s) { s->item_fault[0].expired ^= true; }},
      {"if[0].ee",
       [](CheckpointState* s) { s->item_fault[0].expire_event += 1; }},
      {"if[0].pl",
       [](CheckpointState* s) { s->item_fault[0].pending_live ^= true; }},
      {"if[0].ps",
       [](CheckpointState* s) { s->item_fault[0].pending_seq += 1; }},
      {"if[0].pv",
       [](CheckpointState* s) { s->item_fault[0].pending_value += 1.0; }},
      {"if[0].pe",
       [](CheckpointState* s) { s->item_fault[0].pending_emit_id += 1; }},
      {"if[0].pr",
       [](CheckpointState* s) { s->item_fault[0].pending_next_retx += 1.0; }},
      {"if[0].pa",
       [](CheckpointState* s) { s->item_fault[0].pending_attempts += 1; }},
      {"reg[test.hist].k",
       [](CheckpointState* s) { s->instruments.back().kind = 'c'; }},
      {"reg[test.hist].min",
       [](CheckpointState* s) { s->instruments.back().raw_min = 1.0; }},
      {"reg[test.hist].max",
       [](CheckpointState* s) { s->instruments.back().raw_max = 2.0; }},
  };
  for (const auto& [path, perturb] : cases) {
    CheckpointState b = a;
    perturb(&b);
    std::string out;
    EXPECT_GE(DiffCheckpoints(a, b, 50, &out), 1) << path;
    EXPECT_NE(out.find("  " + std::string(path) + ": "), std::string::npos)
        << path << " not named in:\n"
        << out;
  }
}

TEST_F(RecoveryCodecTest, WalRoundTripsEveryRecordKind) {
  const std::string path = ::testing::TempDir() + "recovery_codec_rt.wal";
  std::remove(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "a");
  ASSERT_NE(f, nullptr);
  using Kind = WalRecord::Kind;
  AppendWal(f, {.kind = Kind::kHeader});
  AppendWal(f, {.kind = Kind::kRow, .tick = 7, .values = {1.5, 2.25}});
  AppendWal(f, {.kind = Kind::kAck, .time = 6.125, .item = 3, .seq = 41});
  AppendWal(f, {.kind = Kind::kChurn, .tick = 8, .op = "register",
                .query_id = 12});
  AppendWal(f, {.kind = Kind::kCrash, .tick = 9, .event_id = 777,
                .cause = 555});
  std::fclose(f);

  std::vector<WalRecord> records;
  ASSERT_TRUE(LoadWal(path, &records).ok());
  std::remove(path.c_str());
  // Header lines are consumed by the loader, not returned as records.
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].kind, WalRecord::Kind::kRow);
  EXPECT_EQ(records[0].tick, 7);
  ASSERT_EQ(records[0].values.size(), 2u);
  EXPECT_EQ(records[0].values[0], 1.5);
  EXPECT_EQ(records[0].values[1], 2.25);
  EXPECT_EQ(records[1].kind, WalRecord::Kind::kAck);
  EXPECT_EQ(records[1].time, 6.125);
  EXPECT_EQ(records[1].item, 3);
  EXPECT_EQ(records[1].seq, 41);
  EXPECT_EQ(records[2].kind, WalRecord::Kind::kChurn);
  EXPECT_EQ(records[2].op, "register");
  EXPECT_EQ(records[2].query_id, 12);
  EXPECT_EQ(records[3].kind, WalRecord::Kind::kCrash);
  EXPECT_EQ(records[3].tick, 9);
  EXPECT_EQ(records[3].event_id, 777u);
  EXPECT_EQ(records[3].cause, 555u);
  EXPECT_EQ(LastCrashMarker(records), &records[3]);
}

TEST_F(RecoveryCodecTest, WalWithoutCrashMarkerHasNoMarker) {
  std::vector<WalRecord> records;
  ASSERT_TRUE(LoadWal(wal_path_, &records).ok());
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(LastCrashMarker(records), nullptr);  // the run ended cleanly
}

TEST_F(RecoveryCodecTest, WalCorruptionIsNamedError) {
  std::string text = ReadAll(wal_path_);
  const std::vector<std::string> lines = SplitLines(text);
  const int n = static_cast<int>(lines.size());

  std::string truncated = text;
  truncated.resize(truncated.size() - 4);
  ExpectWalError(truncated, n, "truncated record at end of file");

  std::vector<std::string> skewed = lines;
  const size_t at = skewed[0].find("polydab.wal.v1");
  ASSERT_NE(at, std::string::npos);
  skewed[0].replace(at, 14, "polydab.wal.v9");
  ExpectWalError(JoinLines(skewed), 1, "wal version skew");

  std::vector<std::string> unknown = lines;
  ASSERT_NE(unknown[1].find("\"w\":\"row\""), std::string::npos);
  unknown[1].insert(unknown[1].find("\"tick\""), "\"zzz\":2,");
  ExpectWalError(JoinLines(unknown), 2, "unknown key 'zzz'");

  // An integer field holding a value its type cannot: never truncated.
  std::vector<std::string> fractional = lines;
  const size_t tick_at = fractional[1].find("\"tick\":1,");
  ASSERT_NE(tick_at, std::string::npos) << fractional[1];
  fractional[1].replace(tick_at, 9, "\"tick\":1.5,");
  ExpectWalError(JoinLines(fractional), 2, "wal 'row' key 'tick' holds 1.5");
}

TEST(RecoveryTokenCodecTest, IntegerTokensAreRangeCheckedNotCast) {
  std::vector<int> ints;
  EXPECT_TRUE(DecodeInts("-2147483648 2147483647", &ints).ok());
  EXPECT_FALSE(DecodeInts("2147483648", &ints).ok());
  Buckets buckets;
  ASSERT_TRUE(DecodeBuckets("3:9000000000 -1:1", &buckets).ok());
  EXPECT_EQ(buckets[0], std::make_pair(3, int64_t{9000000000}));
  EXPECT_FALSE(DecodeBuckets("3:x", &buckets).ok());
  EXPECT_FALSE(DecodeBuckets("4294967296:1", &buckets).ok());
  EXPECT_FALSE(DecodeBuckets("3", &buckets).ok());
  Polynomial p;
  EXPECT_TRUE(DecodePolynomial("1.5@0:2,3:1", &p).ok());
  EXPECT_FALSE(DecodePolynomial("1.5@4294967296:1", &p).ok());
  EXPECT_FALSE(DecodePolynomial("1.5@0:4294967298", &p).ok());
}

TEST_F(RecoveryCodecTest, ServiceStateRestoreIsStrict) {
  svc::AdmissionConfig ac;
  std::vector<workload::ChurnOp> empty_schedule;
  svc::QueryService service(ac, empty_schedule, nullptr,
                            sim::PlanMaintenance::kIncremental);
  const std::string state = service.SnapshotState();
  ASSERT_NE(state.find("polydab.svcstate.v1"), std::string::npos);
  EXPECT_TRUE(service.RestoreState(state).ok());

  std::string skewed = state;
  skewed.replace(skewed.find("polydab.svcstate.v1"), 19,
                 "polydab.svcstate.v9");
  Status bad = service.RestoreState(skewed);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.ToString().find("version"), std::string::npos)
      << bad.ToString();
}

}  // namespace
}  // namespace polydab::recovery
