#ifndef POLYDAB_RECOVERY_WAL_H_
#define POLYDAB_RECOVERY_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"

/// \file wal.h
/// Write-ahead log of everything the coordinator consumed after the last
/// checkpoint (docs/RECOVERY.md). The engine is deterministic given its
/// inputs, so the only record replay strictly needs is the refresh row a
/// tick consumed ("row", written *before* the tick is processed); ack and
/// churn records are append-only audit entries for polydab_ckpt — replay
/// regenerates both deterministically and ignores them. A "crash" marker
/// records where the injector terminated the run, so the restart knows
/// which tick to stop replaying at and which trace id the coord_crash
/// event carried. The file is JSONL, format tag polydab.wal.v1, strictly
/// parsed with line-numbered diagnostics, and accumulates across
/// invocations: a restarted run appends its newly consumed ticks to the
/// same file, so checkpoint + WAL stay a self-sufficient pair.

namespace polydab::recovery {

/// One WAL record, written by AppendWal and parsed by LoadWal. Fields
/// are populated per kind; unused fields keep their zero values.
struct WalRecord {
  enum class Kind { kHeader, kRow, kAck, kChurn, kCrash };
  Kind kind = Kind::kHeader;
  int tick = 0;           ///< kRow / kChurn / kCrash
  Vector values{};        ///< kRow: the full source row for the tick
  double time = 0.0;      ///< kAck: simulated send time
  int item = -1;          ///< kAck
  int64_t seq = 0;        ///< kAck: acknowledged sequence number
  std::string op{};       ///< kChurn: register | modify | deregister
  int query_id = 0;       ///< kChurn
  uint64_t event_id = 0;  ///< kCrash: trace id of the coord_crash event
  uint64_t cause = 0;     ///< kCrash: latest checkpoint_end id (0 if none)

  /// The kind's field list, in wire order after the "w" tag
  /// (recovery/record.h). The header carries only the codec's version
  /// key "v".
  template <class S, class V>
  static void Fields(S& s, V& v) {
    switch (s.kind) {
      case Kind::kHeader:
        break;
      case Kind::kRow:
        v("tick", s.tick);
        v("vals", s.values);
        break;
      case Kind::kAck:
        v("time", s.time);
        v("item", s.item);
        v("seq", s.seq);
        break;
      case Kind::kChurn:
        v("tick", s.tick);
        v("op", s.op);
        v("id", s.query_id);
        break;
      case Kind::kCrash:
        v("tick", s.tick);
        v("eid", s.event_id);
        v("cause", s.cause);
        break;
    }
  }
};

/// Append one record line to an opened-for-append WAL stream. Write a
/// kHeader record once per engine invocation; the loader accepts headers
/// anywhere in the file.
void AppendWal(std::FILE* f, const WalRecord& r);

/// Parse a whole WAL file. Strict: unknown record kinds, unknown keys,
/// missing fields, version skew and a truncated final line are all
/// InvalidArgument naming the line number.
Status LoadWal(const std::string& path, std::vector<WalRecord>* out);

/// The last crash marker in \p records, or nullptr when the log ends
/// without one (the run is still going, or finished cleanly).
const WalRecord* LastCrashMarker(const std::vector<WalRecord>& records);

}  // namespace polydab::recovery

#endif  // POLYDAB_RECOVERY_WAL_H_
