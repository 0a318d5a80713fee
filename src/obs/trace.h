#ifndef POLYDAB_OBS_TRACE_H_
#define POLYDAB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/record.h"

/// \file trace.h
/// Causal event tracing for the coordinator protocol. Where
/// obs/metrics.h answers "how many recomputations happened",
/// this layer answers "*which* refresh caused this one": every protocol
/// event — refresh emitted/arrived, secondary-range violation, recompute
/// start/end, DAB-change sent/installed, AAO joint solve, user
/// notification, per-query fidelity violation — is recorded as a typed
/// TraceEvent carrying the simulation timestamp and a `cause` id linking
/// it to the event that triggered it. The resulting log is deterministic
/// and complete, so an offline reader (obs/trace_check.h,
/// tools/polydab_tracecheck.cc) can replay it, re-derive every SimMetrics
/// field exactly, and independently verify the dual-DAB validity-window
/// protocol of §III-A.2.
///
/// Conventions, mirroring MetricRegistry (docs/OBSERVABILITY.md):
///  * Optional everywhere: instrumented layers take a nullable
///    `TraceSink*`; a null sink costs one predictable branch per site.
///  * Emit is cheap: an id assignment plus a struct store into a
///    preallocated ring segment, under the sink mutex. The segment
///    flushes to an attached JSON-lines file when full (streaming mode)
///    or grows (capture mode). Emit is thread-safe — any thread may
///    emit concurrently with the event loop (the worker pool's solvers
///    run without a sink, docs/CONCURRENCY.md) — and the id is assigned
///    inside the critical section, so the buffered/streamed record order
///    always equals id order.
///  * The on-disk format is JSON-lines with an exact-inverse parser, in
///    the style of run_report.h / workload/trace_io.h.

namespace polydab::obs {

/// What happened. Serialized by name (see Name / ParseTraceEventKind);
/// unknown names are rejected on parse, which is how truncation or
/// corruption of a trace file surfaces as a hard error.
enum class TraceEventKind : uint8_t {
  kRefreshEmitted,      ///< a source (or relay node) pushed a value change
  kRefreshArrived,      ///< the coordinator began processing a refresh
  kSecondaryViolation,  ///< a value escaped a part's secondary DAB range
  kRecomputeStart,      ///< a plan part's DAB recomputation began
  kRecomputeEnd,        ///< ...and finished (flag: 1 ok, 0 solver failure)
  kDabChangeSent,       ///< coordinator shipped a new per-item filter
  kDabChangeInstalled,  ///< the source applied it (cause 0: initial install)
  kAaoSolve,            ///< periodic joint AAO solve (flag: outcome)
  kUserNotification,    ///< query result pushed to the user
  kFidelityViolation,   ///< per-tick sample found a query's QAB violated
  kPlannerPlan,         ///< planner built an initial plan (flag: outcome)
  kPlannerReplan,       ///< planner re-solved a part (flag: outcome)
  kShardBarrier,        ///< coordinator lanes synchronized (sharded mode)
  // Fault-injection + reliability-protocol events (sim/fault_model.h,
  // docs/ROBUSTNESS.md). Only emitted when the run's FaultConfig is
  // active; fault-free traces are byte-identical to earlier formats.
  kFaultDrop,           ///< injected loss of a message (b: message class)
  kRetransmit,          ///< source retransmitted an unacked refresh
  kAck,                 ///< coordinator acked a delivered refresh seq
  kDupSuppressed,       ///< coordinator ignored an already-delivered seq
  kHeartbeat,           ///< source liveness heartbeat arrived
  kCrash,               ///< a source crashed (a: outage duration)
  kLeaseExpire,         ///< an item's source lease lapsed at the coordinator
  kDegrade,             ///< a query entered degraded service (flag: boundable)
  kRecover,             ///< a query left degraded service
  kLaneStall,           ///< injected coordinator lane stall (a: duration)
  // Service-layer churn events (docs/SERVICE.md). Only emitted when a
  // churn op actually executes; churn-free traces are byte-identical to
  // earlier formats.
  kQueryRegister,       ///< a query registered at runtime
  kQueryModify,         ///< a live query's QAB changed
  kQueryDeregister,     ///< a live query departed
  kAdmissionReject,     ///< admission control refused a registration
  kPlanPatch,           ///< post-churn plan-state digest (flag: FNV-1a)
  // Windowed-telemetry SLO events (obs/timeseries.h, obs/slo.h). Only
  // emitted when a SeriesRecorder with rules is attached; series-free
  // traces are byte-identical to earlier formats.
  kAlertFire,           ///< an SLO rule started firing at a window close
  kAlertResolve,        ///< a firing SLO rule stopped breaching
  // Crash-recovery events (src/recovery/, docs/RECOVERY.md). Only
  // emitted when checkpointing / crash injection is configured;
  // recovery-free traces are byte-identical to earlier formats, and
  // obs::StripRecoveryEvents (trace_canon.h) removes them again so a
  // crashed+restarted trace can be byte-compared to a vanilla oracle.
  kCheckpointBegin,     ///< coordinator state snapshot started (a = tick)
  kCheckpointEnd,       ///< snapshot durable (cause = kCheckpointBegin)
  kCoordCrash,          ///< injected coordinator crash (flag = tick;
                        ///< cause = latest kCheckpointEnd, 0 if none)
  kRecoveryReplay,      ///< restart finished replaying the WAL
                        ///< (cause = kCoordCrash, a = rows, b = ckpt tick)
};

/// Every kind with its serialization name, in enum order.
std::span<const NameOf<TraceEventKind>> TraceEventKindNames();
/// Serialization name, e.g. "refresh_arrived".
const char* Name(TraceEventKind kind);
/// Inverse of Name; false when the name is unknown.
bool ParseTraceEventKind(const std::string& name, TraceEventKind* out);

/// One protocol event. Only `id`, `time` and `kind` are always
/// meaningful; the identity fields default to -1 (absent) and the payload
/// fields to 0, and the JSONL writer omits fields at their defaults. The
/// meaning of source/item/query/part/a/b/c/flag per kind is documented in
/// docs/OBSERVABILITY.md ("Event tracing"); the load-bearing ones:
///  * kRefreshEmitted:     a = new value, b = filter width in force,
///                         c = previously pushed value (so |a-c| > b is
///                         checkable offline), source = emitting source.
///  * kRefreshArrived:     a = value, b = coordinator queue wait,
///                         cause = the kRefreshEmitted id.
///  * kSecondaryViolation: a = value, b = part anchor, c = secondary DAB,
///                         cause = the kRefreshArrived id.
///  * kRecomputeStart:     cause = the violation (dual-DAB), the arrival
///                         (single-DAB staleness) or the kAaoSolve id.
///  * kRecomputeEnd:       cause = the kRecomputeStart id, flag = outcome.
///  * kDabChangeSent:      a = new width, b = old width, cause = the
///                         kRecomputeEnd / kAaoSolve that changed it.
///  * kDabChangeInstalled: a = width, cause = the kDabChangeSent id
///                         (0 for the synchronous t=0 initial install).
///  * kUserNotification:   a = new result, b = last notified result,
///                         cause = the kRefreshArrived id.
///  * kFidelityViolation:  a = value at sources, b = value at the
///                         coordinator, c = the query's QAB.
///  * kShardBarrier:       a = barrier time (the instant every involved
///                         lane has drained the work queued before the
///                         synchronization), b = number of lanes joined,
///                         item = the EQI-merged item (-1: global / AAO
///                         barrier), cause = the kRecomputeEnd /
///                         kAaoSolve that required the merge.
///
/// Fault-mode events (docs/ROBUSTNESS.md). In fault mode data refreshes
/// additionally carry their sequence number in `flag` (seqs start at 1;
/// fault-free refreshes keep flag = 0 and their bytes unchanged):
///  * kFaultDrop:          an injected loss. flag = seq (data messages),
///                         a = the value carried, b = message class
///                         (0 first copy, 1 retransmit, 2 ack,
///                         3 heartbeat), cause = the emission (class 0/1)
///                         or the ack'd arrival (class 2); 0 for
///                         heartbeats.
///  * kRetransmit:         a = value, b = attempt number (>= 1),
///                         flag = seq, cause = the previous emission
///                         (kRefreshEmitted or kRetransmit) of this seq.
///  * kAck:                flag = seq, cause = the kRefreshArrived or
///                         kDupSuppressed being acknowledged.
///  * kDupSuppressed:      a = value, flag = seq (<= the delivered seq),
///                         cause = the emission of the suppressed copy.
///  * kHeartbeat:          source liveness signal arriving at the
///                         coordinator (source = the source).
///  * kCrash:              a = outage duration in seconds; the source
///                         emits nothing in [time, time + a).
///  * kLeaseExpire:        a = the source's last contact time, b = the
///                         deadline that lapsed (>= lease_s).
///  * kDegrade:            query enters degraded service. item = the
///                         expired item that tipped it, a = widening
///                         sensitivity |dQ/d(item)|, b = the item's drift
///                         rate, flag = 1 if the bound widens gracefully
///                         (degree <= 1 in the item), 0 if unboundable,
///                         cause = the kLeaseExpire id.
///  * kRecover:            query leaves degraded service (every expired
///                         item heard from again), source = the last
///                         recovering source, cause = the contact event.
///  * kLaneStall:          a = injected stall duration, shard = the lane.
///
/// Service-churn events (docs/SERVICE.md):
///  * kQueryRegister:      a = the query's QAB, b = the admission cost
///                         estimate, flag = degrade attempts spent before
///                         admission, shard = the lane the query landed
///                         on (sharded runs). A matching query_info
///                         record is appended at the same time.
///  * kQueryModify:        a = new QAB, b = old QAB, shard = the lane.
///  * kQueryDeregister:    shard = the lane the query held pre-removal.
///  * kAdmissionReject:    a = the cost estimate, b = the budget it broke,
///                         flag = reason (0 over budget, 1 planning
///                         failed, 2 invalid query).
///  * kPlanPatch:          a = live query count, b = EQI component count,
///                         flag = the FNV-1a digest of the live plan
///                         state (common/hash.h HashPlanRecord over
///                         (id, lane, component min, QAB) ascending by
///                         id), cause = the churn event it reflects. The
///                         checker recomputes all three from scratch.
///
/// SLO alert events (obs/slo.h), emitted at window closes by a
/// SeriesRecorder. time = the closing window's end:
///  * kAlertFire:          flag = rule index, a = the observed metric
///                         value, b = the rule threshold, c = consecutive
///                         breaching windows, cause = the last non-alert
///                         event folded before the close (0: none yet).
///  * kAlertResolve:       flag = rule index, a = the (non-breaching)
///                         observed value, b = the threshold, cause as
///                         for kAlertFire.
///
/// Sharded-coordinator runs (sim/simulation.h, coord_shards > 1)
/// additionally stamp `shard` — the coordinator lane an event was
/// processed on — on arrivals, violations, recomputes, DAB-change sends
/// and user notifications; serial runs leave it at -1 and emit byte-wise
/// the same records as before the field existed.
struct TraceEvent {
  uint64_t id = 0;      ///< assigned by the sink; strictly increasing from 1
  double time = 0.0;    ///< simulation seconds
  TraceEventKind kind = TraceEventKind::kRefreshEmitted;
  int32_t node = -1;    ///< coordinator/overlay node (-1: single coordinator)
  int32_t source = -1;  ///< emitting source / relay node
  int32_t item = -1;    ///< data item
  int32_t query = -1;   ///< query id (PolynomialQuery::id, not index)
  int32_t part = -1;    ///< plan part index within the query
  int32_t shard = -1;   ///< coordinator lane (-1: serial / not lane work)
  uint64_t cause = 0;   ///< id of the triggering event; 0 = none
  double a = 0.0;       ///< kind-specific payload (see above)
  double b = 0.0;
  double c = 0.0;
  int32_t flag = 0;     ///< kind-specific discrete payload (e.g. outcome)

  bool operator==(const TraceEvent&) const = default;

  /// The `event` record's field list (obs/record.h).
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("id", s.id);
    v("t", s.time);
    v("kind", Named{s.kind, TraceEventKindNames()});
    v("node", Omit{s.node, -1});
    v("source", Omit{s.source, -1});
    v("item", Omit{s.item, -1});
    v("query", Omit{s.query, -1});
    v("part", Omit{s.part, -1});
    v("shard", Omit{s.shard, -1});
    v("cause", Omit{s.cause, 0});
    v("a", Omit{s.a, 0.0});
    v("b", Omit{s.b, 0.0});
    v("c", Omit{s.c, 0.0});
    v("flag", Omit{s.flag, 0});
  }
};

/// Items of one query, recorded so the offline reader can attribute
/// refresh traffic to queries without access to the query objects. The
/// per-node vectors also fix the query iteration order the simulator used,
/// which the fidelity re-derivation must reproduce exactly.
struct TraceQueryInfo {
  int32_t query = -1;
  int32_t node = -1;
  int32_t shard = -1;  ///< coordinator lane the query is pinned to (-1: serial)
  double qab = 0.0;
  std::vector<int32_t> items;

  bool operator==(const TraceQueryInfo&) const = default;

  /// The `query_info` record's field list (obs/record.h).
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("query", s.query);
    v("node", Omit{s.node, -1});
    v("shard", Omit{s.shard, -1});
    v("qab", Omit{s.qab, 0.0});
    v("items", s.items);
  }
};

/// The trailing self-description a traced run appends: final metrics plus
/// the run shape the replay needs (query count, tick count, sampling
/// stride, violation tolerance). One per simulated coordinator (node -1
/// for the single-coordinator simulator).
struct TraceRunSummary {
  int32_t node = -1;
  int64_t queries = 0;
  int64_t ticks = 0;
  int64_t fidelity_stride = 1;
  double violation_tol = 0.0;
  int64_t refreshes = 0;
  int64_t recomputations = 0;
  int64_t dab_change_messages = 0;
  int64_t user_notifications = 0;
  int64_t solver_failures = 0;
  double mean_fidelity_loss_pct = 0.0;
  /// Fault-mode counters (docs/ROBUSTNESS.md), written omit-at-zero so
  /// fault-free summaries keep their exact historical bytes.
  int64_t fault_drops = 0;
  int64_t retransmits = 0;
  int64_t duplicates_suppressed = 0;
  int64_t lease_expiries = 0;
  double degraded_query_seconds = 0.0;

  bool operator==(const TraceRunSummary&) const = default;

  /// The `run_summary` record's field list (obs/record.h): the run shape,
  /// then the totals.
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("node", s.node);
    v("queries", s.queries);
    v("ticks", s.ticks);
    v("fidelity_stride", s.fidelity_stride);
    v("violation_tol", s.violation_tol);
    Counters(s, v);
  }
  /// The totals, in wire order. obs::TraceDerivedStats (trace_check.h)
  /// holds the same members re-derived from the events, so the checker
  /// and the folder walk this list over both.
  template <class S, class V>
  static void Counters(S& s, V& v) {
    v("refreshes", s.refreshes);
    v("recomputations", s.recomputations);
    v("dab_change_messages", s.dab_change_messages);
    v("user_notifications", s.user_notifications);
    v("solver_failures", s.solver_failures);
    v("mean_fidelity_loss_pct", s.mean_fidelity_loss_pct);
    v("fault_drops", Omit{s.fault_drops, 0});
    v("retransmits", Omit{s.retransmits, 0});
    v("duplicates_suppressed", Omit{s.duplicates_suppressed, 0});
    v("lease_expiries", Omit{s.lease_expiries, 0});
    v("degraded_query_seconds", Omit{s.degraded_query_seconds, 0.0});
  }
};

/// A parsed (or captured) trace: free-form metadata, the event sequence
/// in emission (id) order, per-query item sets, and the run summary:
/// present for a finished run (covering every event and query), absent
/// for a truncated one.
struct TraceFile {
  std::map<std::string, std::string> info;
  std::vector<TraceQueryInfo> queries;
  std::vector<TraceEvent> events;
  std::optional<TraceRunSummary> summary;
};

/// Canonical JSON-lines rendering: info lines, query_info lines, event
/// lines, the run_summary line. Fields at their default values are
/// omitted; ParseTraceJsonLines inverts this exactly (and re-serializing a
/// parsed canonical trace reproduces the bytes).
std::string TraceToJsonLines(const TraceFile& trace);

/// Inverse of TraceToJsonLines. Also accepts streamed files (TraceSink
/// with a file attached), whose record order may interleave; rejects
/// malformed lines, unknown record types, unknown event kinds and a second
/// run_summary.
Result<TraceFile> ParseTraceJsonLines(const std::string& text);

/// File-level convenience wrappers.
Status SaveTraceFile(const TraceFile& trace, const std::string& path);
Result<TraceFile> LoadTraceFile(const std::string& path);

/// Receives every emitted event as it passes through a TraceSink —
/// the hook live aggregators (obs/timeseries.h SeriesRecorder) use to
/// fold the stream without a second emission path. Called from inside
/// Emit with the sink's lock held: implementations must not call back
/// into the same sink.
class TraceObserver {
 public:
  virtual ~TraceObserver() = default;
  /// \p e carries its assigned id.
  virtual void OnEvent(const TraceEvent& e) = 0;
};

/// Event collector. Two modes:
///  * capture (default): events accumulate in memory; Collect() returns
///    the full TraceFile.
///  * streaming: after StreamTo(path), the ring segment is flushed to the
///    file whenever it fills and on Finish(); info/query/summary records
///    (small) are buffered and written at Finish().
class TraceSink {
 public:
  /// Ring segment size in events (~4 MiB at the default); streaming mode
  /// flushes at this granularity, capture mode grows past it.
  static constexpr size_t kDefaultCapacity = size_t{1} << 16;

  explicit TraceSink(size_t capacity = kDefaultCapacity);
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Switch to streaming mode. Must be called before the first Emit.
  Status StreamTo(const std::string& path);

  /// Record one event. Assigns and returns its id (ignore the `id` field
  /// of \p e). The returned id is what later events pass as `cause`.
  uint64_t Emit(TraceEvent e);

  /// Logical simulation clock, advanced by the driving layer so that
  /// layers without their own clock (the planner) can stamp events.
  void SetNow(double t) { now_.store(t, std::memory_order_relaxed); }
  double now() const { return now_.load(std::memory_order_relaxed); }

  void SetInfo(const std::string& key, const std::string& value);
  void AddQueryInfo(TraceQueryInfo info);
  /// Record the run summary; a sink holds one, so a second call fails.
  Status AddRunSummary(const TraceRunSummary& summary);

  /// Restart-from-checkpoint support (src/recovery/): resume id
  /// assignment at \p next_id so a restarted run's events line up with
  /// the crashed run's id space. Only legal before the first Emit.
  void SetNextId(uint64_t next_id) { next_id_.store(next_id); }

  /// While suppressed, AddQueryInfo calls are dropped — the WAL replay
  /// re-registers queries whose infos the crashed run already recorded,
  /// and the merged trace must carry each info exactly once.
  void SuppressQueryInfos(bool suppress) { suppress_query_infos_ = suppress; }

  /// Forward every subsequent Emit to \p observer (null detaches). The
  /// observer sees events after id assignment, in emission order.
  void SetObserver(TraceObserver* observer);

  /// Discard mode: emitted events still get ids and reach the observer,
  /// but are not buffered (and never written) — for runs that only want
  /// the folded series, not the trace itself. Must not be combined with
  /// streaming; Collect() then returns metadata only.
  void SetDiscard(bool discard);

  /// Total events emitted so far.
  uint64_t emitted() const {
    return next_id_.load(std::memory_order_relaxed) - 1;
  }

  /// Flush and close the streamed file; idempotent, called by the
  /// destructor. No-op (OK) in capture mode.
  Status Finish();

  /// Capture mode: the full trace collected so far. Streaming mode:
  /// metadata plus whatever events are still buffered (the rest is on
  /// disk — use LoadTraceFile).
  TraceFile Collect() const;

 private:
  Status FlushLocked();  ///< stream buffered events; requires mu_ held

  const size_t capacity_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<double> now_{0.0};

  mutable std::mutex mu_;  ///< guards everything below; uncontended in
                           ///< the single-producer simulators
  TraceObserver* observer_ = nullptr;
  bool discard_ = false;
  bool suppress_query_infos_ = false;
  std::vector<TraceEvent> buffer_;
  std::map<std::string, std::string> info_;
  std::vector<TraceQueryInfo> queries_;
  std::optional<TraceRunSummary> summary_;
  std::FILE* file_ = nullptr;
  std::string path_;
  /// Streaming mode: info entries already written, so late SetInfo calls
  /// still reach the file at the next flush (last parse wins).
  std::map<std::string, std::string> info_written_;
  bool finished_ = false;
};

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_TRACE_H_
