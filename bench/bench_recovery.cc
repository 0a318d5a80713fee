// Durable-state overhead sweep (src/recovery/, docs/RECOVERY.md): wall
// clock and artifact volume vs the checkpoint cadence, plus one
// crash-and-restart leg. Recovery's core contract is zero perturbation —
// the checkpoint/WAL machinery must not move a single deterministic
// counter, whatever the cadence, and a restarted run must finish with
// exactly the uninterrupted run's counters (the byte-level proof lives
// in tests/recovery_diff_test.cc; the bench hard-fails on any counter
// drift so the wall-clock columns stay meaningful). Mirrors the table
// into BENCH_recovery.json; the ctest gate (bench_recovery_gate) re-runs
// the quick scale and diffs it against the committed baseline with
// bench_compare, which tolerates only the wall-clock fields.
//
// Scales: POLYDAB_BENCH_QUICK=1 is the seconds-long ctest scale,
// REPRO_FULL=1 the paper scale, default in between.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "recovery/checkpoint.h"
#include "recovery/recovery.h"
#include "recovery/wal.h"
#include "sim/simulation.h"
#include "workload/tick_source.h"

namespace polydab::bench {
namespace {

int64_t CountCkptBlocks(const std::string& path) {
  recovery::CheckpointState state;
  // A load that fails (no file) means zero blocks for the off row.
  if (!recovery::LoadLatestCheckpoint(path, &state).ok()) return 0;
  Result<std::string> text = obs::ReadFileText(path);
  if (!text.ok()) return 0;
  int64_t blocks = 0;
  for (size_t at = text->find("\"t\":\"hdr\""); at != std::string::npos;
       at = text->find("\"t\":\"hdr\"", at + 1)) {
    ++blocks;
  }
  return blocks;
}

int64_t CountWalRows(const std::string& path) {
  std::vector<recovery::WalRecord> records;
  if (!recovery::LoadWal(path, &records).ok()) return 0;
  int64_t rows = 0;
  for (const recovery::WalRecord& r : records) {
    if (r.kind == recovery::WalRecord::Kind::kRow) ++rows;
  }
  return rows;
}

Status Run() {
  const int items = ByScale(24, 60, 60);
  const int ticks = ByScale(400, 2000, 10000);
  const int nq = ByScale(12, 60, 120);
  POLYDAB_ASSIGN_OR_RETURN(
      const Universe u,
      MakeUniverse(workload::TraceKind::kGbmStock, 9001, items, ticks));
  workload::QueryGenConfig qc;
  qc.num_items = items;
  Rng qrng(48);
  POLYDAB_ASSIGN_OR_RETURN(
      const std::vector<PolynomialQuery> queries,
      workload::GeneratePortfolioQueries(nq, qc, u.initial, &qrng));

  const std::string ckpt_path = "BENCH_recovery.ckpt";
  const std::string wal_path = "BENCH_recovery.wal";
  auto base_config = [] {
    sim::SimConfig c;
    c.planner.method = core::AssignmentMethod::kDualDab;
    c.planner.dual.mu = 5.0;
    c.seed = 99;
    return c;
  };

  Table table({"interval_s", "restart", "refreshes", "recomps", "ckpt_blocks",
               "wal_rows", "loss%", "wall_s", "overhead%"});
  std::vector<BenchRow> json;
  HarnessTimer timer;
  sim::SimMetrics oracle;
  double off_wall = 0.0;
  // The first row is the recovery-off oracle. Zero-perturbation
  // contract: cadence and crash-recovery are invisible to every
  // protocol-level outcome.
  auto add_row = [&](int interval, int restarted,
                     const sim::SimMetrics& m, double wall_seconds) {
    if (json.empty()) {
      oracle = m;
      off_wall = wall_seconds;
    }
    POLYDAB_RETURN_NOT_OK(SameCounters(
        "interval=" + std::to_string(interval) +
            " restarted=" + std::to_string(restarted),
        oracle, m));
    const int64_t blocks = CountCkptBlocks(ckpt_path);
    const int64_t wal_rows = CountWalRows(wal_path);
    table.AddRow({Fmt(static_cast<int64_t>(interval)),
                  Fmt(static_cast<int64_t>(restarted)), Fmt(m.refreshes),
                  Fmt(m.recomputations), Fmt(blocks), Fmt(wal_rows),
                  Fmt(m.mean_fidelity_loss_pct, 3), Fmt(wall_seconds, 3),
                  Fmt(off_wall > 0.0
                          ? 100.0 * (wall_seconds - off_wall) / off_wall
                          : 0.0,
                      1)});
    json.push_back(BenchRow()
                       .Num("interval", interval)
                       .Num("restarted", restarted)
                       .Num("refreshes", m.refreshes)
                       .Num("recomputations", m.recomputations)
                       .Num("dab_changes", m.dab_change_messages)
                       .Num("user_notifications", m.user_notifications)
                       .Num("mean_fidelity_loss_pct", m.mean_fidelity_loss_pct)
                       .Num("ckpt_blocks", blocks)
                       .Num("wal_rows", wal_rows)
                       .Num("wall_seconds", wall_seconds));
    return Status::OK();
  };

  // Cadence sweep: off, hourly-ish, aggressive, pathological.
  for (int interval : {0, 60, 20, 5}) {
    std::remove(ckpt_path.c_str());
    std::remove(wal_path.c_str());
    recovery::RecoveryConfig rc;
    sim::SimConfig c = base_config();
    if (interval > 0) {
      rc.checkpoint_path = ckpt_path;
      rc.wal_path = wal_path;
      rc.interval_s = interval;
      c.recovery = &rc;
    }
    obs::ScopedTimer timed = timer.Section(
        "bench.run.ckpt_interval." + std::to_string(interval));
    POLYDAB_ASSIGN_OR_RETURN(const sim::SimMetrics m,
                             sim::RunSimulation(queries, u.traces, u.rates, c));
    POLYDAB_RETURN_NOT_OK(add_row(interval, 0, m, timed.Stop()));
  }

  // Crash-and-restart leg: crash at mid-run under the 20 s cadence, then
  // time the restart (snapshot load + WAL replay + the remaining ticks).
  {
    std::remove(ckpt_path.c_str());
    std::remove(wal_path.c_str());
    const int crash_tick = ticks / 2;
    recovery::RecoveryConfig crash_rc;
    crash_rc.checkpoint_path = ckpt_path;
    crash_rc.wal_path = wal_path;
    crash_rc.interval_s = 20;
    crash_rc.crash_at_tick = crash_tick;
    sim::SimConfig c = base_config();
    c.recovery = &crash_rc;
    auto crashed = sim::RunSimulation(queries, u.traces, u.rates, c);
    if (!crashed.ok()) return crashed.status();
    if (!crash_rc.crashed) {
      return Status::Internal("crash leg: injector never fired");
    }

    recovery::CheckpointState ckpt;
    std::vector<recovery::WalRecord> wal;
    POLYDAB_RETURN_NOT_OK(recovery::LoadLatestCheckpoint(ckpt_path, &ckpt));
    POLYDAB_RETURN_NOT_OK(recovery::LoadWal(wal_path, &wal));
    const recovery::WalRecord* marker = recovery::LastCrashMarker(wal);
    if (marker == nullptr) {
      return Status::Internal("restart leg: WAL carries no crash marker");
    }
    recovery::RecoveryConfig restart_rc;
    restart_rc.checkpoint_path = ckpt_path;
    restart_rc.wal_path = wal_path;
    restart_rc.interval_s = 20;
    restart_rc.restart = &ckpt;
    restart_rc.wal = &wal;
    sim::SimConfig rcfg = base_config();
    rcfg.recovery = &restart_rc;
    workload::TraceSetTickSource src(&u.traces);
    Vector skip;
    for (int t = 0; t < marker->tick; ++t) {
      auto got = src.Next(&skip);
      if (!got.ok() || !*got) {
        return Status::Internal("restart leg: source too short");
      }
    }
    obs::ScopedTimer timed = timer.Section("bench.run.restart");
    POLYDAB_ASSIGN_OR_RETURN(const sim::SimMetrics m,
                             sim::RunSimulation(queries, src, u.rates, rcfg));
    POLYDAB_RETURN_NOT_OK(add_row(20, 1, m, timed.Stop()));
  }
  std::remove(ckpt_path.c_str());
  std::remove(wal_path.c_str());

  std::printf("=== Durable-state overhead sweep (%d PPQs, %d items, "
              "%d ticks) ===\n",
              nq, items, ticks);
  table.Print();
  timer.PrintSummary();
  return WriteBenchJson("BENCH_recovery.json", json);
}

}  // namespace
}  // namespace polydab::bench

int main() {
  return polydab::bench::ExitCode("bench_recovery", polydab::bench::Run());
}
