#ifndef POLYDAB_RECOVERY_CHECKPOINT_H_
#define POLYDAB_RECOVERY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "recovery/codec.h"
#include "recovery/record.h"
#include "recovery/run_counters.h"

/// \file checkpoint.h
/// Durable coordinator snapshots (docs/RECOVERY.md). A checkpoint block
/// is the coordinator's protocol state at the end of one tick — query
/// slots and installed plans, primary/secondary DAB assignments and
/// anchors, the run counters, the in-flight event heap, the reliability
/// protocol's seq/ack/retransmit/lease arrays, the two persistent RNG
/// streams and the service driver's opaque state — rendered as strictly
/// parsed JSON lines (format tag polydab.ckpt.v3) in the same
/// json_util dialect as traces and run reports. Blocks are appended to an
/// accumulating file; the loader takes the last *complete* block (header
/// through digest footer), so a crash mid-write simply falls back to the
/// previous snapshot. Corruption is never repaired silently: version
/// skew, unknown keys, missing fields, a digest mismatch and a truncated
/// final line are all InvalidArgument naming the line number.
///
/// Each record type below lists its flat fields once, in wire order, in a
/// `Fields` member template (recovery/record.h); the block writer, the
/// strict loader and DiffCheckpoints all walk those lists, so a field
/// exists on disk exactly when it is listed. Adding a field means a
/// member, a list entry and a format version bump. What the engine
/// derives from these records — which live queries read each item, an
/// item's home lane and lane set, the tick count, the resume event id —
/// is not carried: a restart rebuilds it from the records. Telemetry is
/// not carried either: identical runs write identical blocks whether or
/// not a metric registry is attached.

namespace polydab::recovery {

/// The coordinator's mutable state for one query slot (live or dead —
/// dead slots keep their index; liveness itself is the engine's live
/// table). The engine keeps one per slot, beside its query vector, and
/// the checkpoint carries it whole inside CheckpointQuery.
struct QuerySlot {
  int reg_tick = 0;
  int dereg_tick = -1;    ///< -1 = never deregistered
  double violated_time = 0.0;   ///< sampled seconds the QAB was violated
  double last_user_value = 0.0; ///< query value last pushed to the user
  int shard = 0;          ///< coordinator lane (-1 once dead under churn)
  int degraded_items = 0;    ///< fault mode: items degrading this query
  uint64_t degrade_event = 0;  ///< fault mode: trace id of the degrade
};

/// One query slot: the query itself, whether it is live, its slot state,
/// and the incremental evaluator's delta-chain value for it (for a dead
/// slot, the value it had when it departed).
struct CheckpointQuery {
  int id = 0;
  double qab = 0.0;
  Polynomial poly;
  bool alive = true;
  QuerySlot slot;
  double query_value = 0.0;

  /// Record 'q', written after the codec's positional "slot" key.
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("id", s.id);
    v("qab", s.qab);
    v("poly", s.poly);
    v("alive", s.alive);
    v("reg", s.slot.reg_tick);
    v("dereg", s.slot.dereg_tick);
    v("viol", s.slot.violated_time);
    v("lastv", s.slot.last_user_value);
    v("shard", s.slot.shard);
    v("qval", s.query_value);
    v("degi", s.slot.degraded_items);
    v("dege", s.slot.degrade_event);
  }
};

/// One installed plan part of one query slot.
struct CheckpointPart {
  int slot = 0;
  int part = 0;
  Polynomial poly;    ///< the sub-polynomial
  double pqab = 0.0;  ///< the part's share of the query accuracy bound
  std::vector<VarId> vars;
  Vector primary;    ///< aligned with vars
  Vector secondary;  ///< aligned with vars
  double recompute_rate = 0.0;
  bool single_dab = false;
  bool never_stale = false;
  Vector anchor;  ///< item values the DABs anchor at, aligned with vars

  /// Record 'part'.
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("slot", s.slot);
    v("part", s.part);
    v("poly", s.poly);
    v("pqab", s.pqab);
    v("vars", s.vars);
    v("pri", s.primary);
    v("sec", s.secondary);
    v("rate", s.recompute_rate);
    v("sdab", s.single_dab);
    v("nstale", s.never_stale);
    v("anchor", s.anchor);
  }
};

/// One queued simulator event. The engine's event heap stores these
/// directly; the heap array is serialized in storage order and restored
/// as-is (the heap's layout is specified, so the bytes are deterministic).
struct CheckpointEvent {
  double time = 0.0;
  int type = 0;   ///< the engine's event type
  int item = -1;  ///< heartbeats: the source id
  double value = 0.0;
  // Causal-trace bookkeeping, 0 when tracing is off: the id of the event
  // this message corresponds to, and the total coordinator-queue wait
  // accumulated across deferrals.
  uint64_t trace_id = 0;
  double wait = 0.0;
  int64_t seq = 0;  ///< fault mode: refresh/ack sequence number, else 0

  /// Record 'ev'.
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("time", s.time);
    v("k", s.type);
    v("item", s.item);
    v("val", s.value);
    v("tid", s.trace_id);
    v("wait", s.wait);
    v("seq", s.seq);
  }
};

/// One source's reliability protocol state (fault mode only). The engine
/// keeps its per-source table as a vector of these.
struct CheckpointSource {
  double crashed_until = 0.0;   ///< down until this time
  uint64_t crash_event = 0;     ///< trace id of the crash
  double next_heartbeat = 0.0;  ///< next heartbeat time
  double last_contact = 0.0;    ///< last contact seen at the coordinator
  uint64_t contact_event = 0;   ///< trace id of that contact

  /// Record 'src', written after the codec's positional "i" key.
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("cu", s.crashed_until);
    v("ce", s.crash_event);
    v("nh", s.next_heartbeat);
    v("lc", s.last_contact);
    v("cte", s.contact_event);
  }
};

/// One item's reliability protocol state (fault mode only). The engine
/// keeps its per-item table as a vector of these.
struct CheckpointItemFault {
  int64_t next_seq = 1;       ///< next refresh seq the source assigns
  int64_t delivered_seq = 0;  ///< highest seq delivered at the coordinator
  int64_t drop_seq = 0;       ///< max dropped data seq
  uint64_t drop_eid = 0;      ///< trace id of that drop
  bool expired = false;       ///< lease currently lapsed?
  uint64_t expire_event = 0;  ///< trace id of the expiry
  // The source's latest unacked refresh, kept for timeout retransmission
  // and replaced wholesale when a newer value pushes.
  bool pending_live = false;
  int64_t pending_seq = 0;
  double pending_value = 0.0;
  uint64_t pending_emit_id = 0;  ///< latest emission (first or retransmit)
  double pending_next_retx = 0.0;
  int pending_attempts = 0;

  /// Record 'if', written after the codec's positional "i" key.
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("ns", s.next_seq);
    v("ds", s.delivered_seq);
    v("dr", s.drop_seq);
    v("de", s.drop_eid);
    v("exp", s.expired);
    v("ee", s.expire_event);
    v("pl", s.pending_live);
    v("ps", s.pending_seq);
    v("pv", s.pending_value);
    v("pe", s.pending_emit_id);
    v("pr", s.pending_next_retx);
    v("pa", s.pending_attempts);
  }
};

/// The coordinator's item-indexed values and lane clocks. The engine
/// keeps one of these; the checkpoint carries it whole. Item membership
/// (which live queries read an item, and on which lanes) is not here:
/// it belongs to the engine's live-query table.
struct CheckpointItems {
  Vector view;            ///< the coordinator's item values
  Vector source_value;    ///< true current value per item
  Vector last_pushed;     ///< value at each item's last push
  Vector installed_dab;   ///< active source filter; +inf for unused items
  Vector min_primary;     ///< EQI merge target; +inf for unused items
  Vector shard_free_at;   ///< per-lane busy-until clock

  /// Record 'items'.
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("view", s.view);
    v("src", s.source_value);
    v("pushed", s.last_pushed);
    v("inst", s.installed_dab);
    v("minp", s.min_primary);
    v("free", s.shard_free_at);
  }
};

/// A full snapshot. Plain data; the engine builds/applies it, this module
/// only moves it to and from disk.
struct CheckpointState {
  int tick = 0;         ///< snapshot taken at the end of this tick
  uint32_t config_fp = 0;  ///< FNV-1a of SimConfig::Describe()
  int num_items = 0;
  int num_sources = 0;
  int num_shards = 0;
  uint64_t ckpt_end_id = 0;  ///< checkpoint_end event id, 0 untraced
  bool fault_mode = false;
  int64_t updates_since_rebase = 0;  ///< incremental evaluator drift clock

  RunCounters metrics;
  std::vector<CheckpointQuery> queries;
  std::vector<CheckpointPart> parts;
  CheckpointItems items;
  std::vector<CheckpointEvent> events;         ///< heap array, verbatim
  std::vector<CheckpointSource> sources;       ///< fault mode only
  std::vector<CheckpointItemFault> item_fault; ///< fault mode only

  std::string delay_rng;  ///< mt19937_64 stream state, space-separated
  std::string fault_rng;
  std::string service_state;  ///< ServiceHooks::SnapshotState, opaque

  /// The first trace event id after the snapshot, where a restart resumes
  /// numbering (0 when taken untraced).
  uint64_t ResumeTraceId() const {
    return ckpt_end_id == 0 ? 0 : ckpt_end_id + 1;
  }

  /// Record 'hdr', written after the codec's format version key "v".
  template <class S, class V>
  static void HeaderFields(S& s, V& v) {
    v("tick", s.tick);
    v("config_fp", s.config_fp);
    v("items", s.num_items);
    v("sources", s.num_sources);
    v("shards", s.num_shards);
    v("ckpt_end_id", s.ckpt_end_id);
    v("fault", s.fault_mode);
    v("usr", s.updates_since_rebase);
    v("nq", Count{s.queries});
    v("np", Count{s.parts});
    v("nev", Count{s.events});
    v("delay_rng", s.delay_rng);
    v("fault_rng", s.fault_rng);
    v("svc", s.service_state);
  }
};

/// Append one snapshot block (header .. digest footer) to \p path,
/// creating the file if needed. Flushes before returning so the block is
/// durable against a subsequent simulated crash.
Status WriteCheckpoint(const CheckpointState& state, const std::string& path);

/// Load the last complete block of \p path. Incomplete trailing blocks
/// (in-progress or torn writes, i.e. a header without its matching
/// footer) are tolerated only at the end of the file; everything else is
/// a named, line-numbered error.
Status LoadLatestCheckpoint(const std::string& path, CheckpointState* out);

/// Human-oriented summary of one snapshot (polydab_ckpt): every header
/// and metrics field as "hdr.<key> <value>" / "met.<key> <value>" lines
/// (long strings clipped), then query liveness.
std::string SummarizeCheckpoint(const CheckpointState& state);

/// Compare two snapshots field by field, every listed field of every
/// record, by wire bytes; appends
/// one "  path: a vs b" line per difference to \p out (capped at
/// \p max_lines) and returns the total number of differences. Paths name
/// the record and its wire key: "hdr.tick", "q[3].reg", "ev[0].wait".
int DiffCheckpoints(const CheckpointState& a, const CheckpointState& b,
                    int max_lines, std::string* out);

}  // namespace polydab::recovery

#endif  // POLYDAB_RECOVERY_CHECKPOINT_H_
