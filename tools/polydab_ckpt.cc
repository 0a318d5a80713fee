// polydab_ckpt: checkpoint / WAL inspector for the crash-recovery layer.
//
// Loads durable coordinator snapshots written by `polydab_experiment
// ckpt-out=FILE` (src/recovery/checkpoint.h, docs/RECOVERY.md) and either
// summarizes the latest complete block, validates the file end to end, or
// field-diffs the latest blocks of two files. With --wal=FILE it also
// parses the refresh WAL and reports its row/ack/churn/crash composition.
//
// Usage:
//   polydab_ckpt summarize CKPT.jsonl [--wal=WAL.jsonl]
//   polydab_ckpt validate  CKPT.jsonl [--wal=WAL.jsonl] [--quiet]
//   polydab_ckpt diff      A.jsonl B.jsonl [--max-diffs=N]
//
//   summarize  print a human-oriented summary of the latest snapshot
//   validate   strict-parse the file(s); print "ok" per file on success
//   diff       compare the latest snapshots of two files field by field
//
// Exit status: 0 on success (diff: snapshots identical), 1 when diff
// finds differences, 2 on unreadable/malformed/corrupt input — version
// skew, unknown keys, digest mismatches and truncated final lines are all
// reported with their line number, never repaired silently.

#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/record.h"
#include "recovery/checkpoint.h"
#include "recovery/wal.h"

using namespace polydab;

namespace {

int SummarizeWal(const std::string& path) {
  std::vector<recovery::WalRecord> records;
  Status st = recovery::LoadWal(path, &records);
  if (!st.ok()) {
    std::fprintf(stderr, "polydab_ckpt: %s: %s\n", path.c_str(),
                 st.ToString().c_str());
    return 2;
  }
  size_t rows = 0, acks = 0, churn = 0, crashes = 0;
  int first_row_tick = -1, last_row_tick = -1;
  for (const recovery::WalRecord& r : records) {
    switch (r.kind) {
      case recovery::WalRecord::Kind::kHeader:
        break;
      case recovery::WalRecord::Kind::kRow:
        if (first_row_tick < 0) first_row_tick = r.tick;
        last_row_tick = r.tick;
        ++rows;
        break;
      case recovery::WalRecord::Kind::kAck:
        ++acks;
        break;
      case recovery::WalRecord::Kind::kChurn:
        ++churn;
        break;
      case recovery::WalRecord::Kind::kCrash:
        ++crashes;
        break;
    }
  }
  std::printf("wal %s: %zu rows", path.c_str(), rows);
  if (rows > 0) {
    std::printf(" (ticks %d..%d)", first_row_tick, last_row_tick);
  }
  std::printf(", %zu acks, %zu churn ops, %zu crash markers\n", acks, churn,
              crashes);
  const recovery::WalRecord* crash = recovery::LastCrashMarker(records);
  if (crash != nullptr) {
    std::printf("  last crash: tick %d, coord_crash event id %llu, "
                "checkpoint_end id %llu\n",
                crash->tick,
                static_cast<unsigned long long>(crash->event_id),
                static_cast<unsigned long long>(crash->cause));
  }
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: polydab_ckpt summarize CKPT.jsonl [--wal=WAL.jsonl]\n"
               "       polydab_ckpt validate  CKPT.jsonl [--wal=WAL.jsonl] "
               "[--quiet]\n"
               "       polydab_ckpt diff      A.jsonl B.jsonl "
               "[--max-diffs=N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  std::vector<std::string> paths;
  std::string wal_path;
  int max_diffs = 50;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--wal=", 6) == 0) {
      wal_path = arg + 6;
    } else if (std::strncmp(arg, "--max-diffs=", 12) == 0) {
      long long n = 0;
      if (!obs::DecodeLong(arg + 12, &n, 1, INT_MAX).ok()) {
        std::fprintf(stderr, "--max-diffs must be a positive integer, "
                             "got '%s'\n", arg + 12);
        return 2;
      }
      max_diffs = static_cast<int>(n);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg);
      Usage();
      return 2;
    } else if (mode.empty()) {
      mode = arg;
    } else {
      paths.push_back(arg);
    }
  }
  if (mode == "summarize" || mode == "validate") {
    if (paths.size() != 1) {
      Usage();
      return 2;
    }
    recovery::CheckpointState state;
    Status st = recovery::LoadLatestCheckpoint(paths[0], &state);
    if (!st.ok()) {
      std::fprintf(stderr, "polydab_ckpt: %s: %s\n", paths[0].c_str(),
                   st.ToString().c_str());
      return 2;
    }
    if (mode == "summarize") {
      std::fputs(recovery::SummarizeCheckpoint(state).c_str(), stdout);
      if (!wal_path.empty() && SummarizeWal(wal_path) != 0) return 2;
    } else {
      if (!wal_path.empty()) {
        std::vector<recovery::WalRecord> records;
        Status ws = recovery::LoadWal(wal_path, &records);
        if (!ws.ok()) {
          std::fprintf(stderr, "polydab_ckpt: %s: %s\n", wal_path.c_str(),
                       ws.ToString().c_str());
          return 2;
        }
        if (!quiet) std::printf("%s: ok\n", wal_path.c_str());
      }
      if (!quiet) std::printf("%s: ok\n", paths[0].c_str());
    }
    return 0;
  }
  if (mode == "diff") {
    if (paths.size() != 2) {
      Usage();
      return 2;
    }
    recovery::CheckpointState a, b;
    Status st = recovery::LoadLatestCheckpoint(paths[0], &a);
    if (!st.ok()) {
      std::fprintf(stderr, "polydab_ckpt: %s: %s\n", paths[0].c_str(),
                   st.ToString().c_str());
      return 2;
    }
    st = recovery::LoadLatestCheckpoint(paths[1], &b);
    if (!st.ok()) {
      std::fprintf(stderr, "polydab_ckpt: %s: %s\n", paths[1].c_str(),
                   st.ToString().c_str());
      return 2;
    }
    std::string out;
    const int n = recovery::DiffCheckpoints(a, b, max_diffs, &out);
    if (n == 0) {
      std::printf("snapshots identical (tick %d)\n", a.tick);
      return 0;
    }
    std::printf("%d difference(s):\n%s", n, out.c_str());
    return 1;
  }
  Usage();
  return 2;
}
