#ifndef POLYDAB_OBS_TRACE_CHECK_H_
#define POLYDAB_OBS_TRACE_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "obs/trace_fold.h"

/// \file trace_check.h
/// Offline replay verification of a causal event trace (trace.h). Given a
/// TraceFile recorded by sim/simulation.cc (or net/relay.cc), CheckTrace
/// independently:
///
///  (a) re-derives every SimMetrics field from the raw events and diffs
///      the result against the trailing run_summary record (and, when
///      provided, against a metrics run report from the same run);
///  (b) checks the protocol invariants of §III-A.2 — every recomputation
///      is caused by a recorded secondary-range violation (dual-DAB) or
///      refresh arrival (single-DAB staleness) or AAO solve; violation
///      values really lie outside the recorded secondary range; DAB
///      changes install only after they were sent; every refresh emission
///      really escaped the filter width installed at that moment;
///  (c) attributes cost per query through the flamegraph fold's one
///      cause-chain pass (trace_fold.h): each message is charged to
///      exactly one query — a refresh to the first query_info reading its
///      item — so the per-query rows sum to the run totals, and each
///      recomputation is traced (recompute -> violation -> arrival ->
///      item) to its root-cause item;
///  (d) for sharded-coordinator traces (a `coord_shards` info key): each
///      lane's event stream is time-monotonic on its own; every
///      query-attributed event carries the lane its query is pinned to
///      and every arrival the item's home lane, both re-derived from the
///      live query set (the query_info and query_register lane stamps
///      must equal that partition); a recompute ends on the lane it
///      started; and a DAB change for an item whose queries span several
///      lanes — a cross-lane EQI merge — only ships after a shard_barrier
///      event later than the change that triggered it. Serial traces
///      carry no lane stamps and skip these checks;
///  (e) for fault-mode traces (a `fault_config` info key,
///      docs/ROBUSTNESS.md): sequence numbers increase strictly per item;
///      no ack without a delivered (or duplicate-suppressed) refresh of
///      that seq; duplicates are only suppressed at or below the
///      delivered seq; retransmit chains link back to the original
///      emission; no source emits inside one of its recorded crash
///      windows; every dropped data message is eventually retransmitted,
///      superseded by a newer seq, re-delivered, or lease-expired (with
///      end-of-trace amnesty); lease expiries quote the source's true
///      last-contact time; the degrade/recover state machine transitions
///      exactly on 0 -> 1 / -> 0 expired-item counts; and every fidelity
///      violation's fault attribution (degraded / fault-caused / benign,
///      with its cause id) is re-derived and must match — a mismatch is a
///      protocol bug, not a fault;
///  (f) for series traces (a `series_window_s` info key,
///      docs/OBSERVABILITY.md "Time series, SLOs and monitoring"): the
///      windowed series is rebuilt from the events alone — per-window
///      message deltas, the churn-derived fidelity sample grid, the SLO
///      rule state machine — and every recorded alert_fire /
///      alert_resolve event must match the re-derivation field for field;
///      the window deltas must sum exactly to the run-summary totals
///      (conservation); and, when TraceCheckOptions::series provides the
///      series file written by the same run, every window / breakdown /
///      alert / totals row in it is diffed against the replay.
///
/// The replay is exact, not approximate: the JSONL doubles round-trip
/// bit-identically (json_util.h) and the checker recomputes the very same
/// floating-point expressions the simulator evaluated, so every
/// comparison is == / strict >, never "close enough". This file lives in
/// obs/ (below core/ and sim/ in the dependency order), so it describes
/// runs purely in terms of the trace vocabulary.

namespace polydab::obs {

struct SeriesFile;  // obs/timeseries.h

struct TraceCheckOptions {
  /// Recomputation cost in refresh-message units for the cost
  /// attribution. Negative (default) means: use the trace's `mu` info key
  /// when present, else the paper's default of 5.
  double mu = -1.0;
  /// Optional telemetry run report from the same run; when set, the
  /// derived totals are also diffed against the `sim.coordinator.*`
  /// counters and the `sim.fidelity.mean_loss_pct` gauge.
  const RunReport* report = nullptr;
  /// Optional series file (obs/timeseries.h) recorded by the same run
  /// (`series-out=`). Only meaningful for series traces: every window,
  /// breakdown row, sample row (for catalog-mirrored instruments), alert
  /// and the totals record is diffed against the alerting-mode replay.
  const SeriesFile* series = nullptr;
  /// Cap on the number of failure messages kept (failure_count still
  /// counts all of them).
  size_t max_failures = 64;
};

struct TraceCheckReport {
  /// Human-readable invariant violations, at most
  /// TraceCheckOptions::max_failures of them.
  std::vector<std::string> failures;
  int64_t failure_count = 0;  ///< total, including unlisted
  int64_t events = 0;
  double mu = 0.0;  ///< the mu the attribution used
  /// The run's stats, re-derived from the events and query_info records
  /// that the trace's one run summary covers.
  TraceDerivedStats derived;
  /// Per-query cost attribution: FoldTrace's by_query table, in key
  /// order (-1: messages no query owns).
  std::vector<FoldAttributionRow> queries;

  bool ok() const { return failure_count == 0; }
  /// Multi-line rendering: verdict, the summary's replay diff, failures,
  /// per-query attribution table.
  std::string ToText(const TraceFile& trace) const;
};

/// \brief Replay \p trace and verify it. Returns a non-OK status only
/// when the trace is structurally unusable (no run_summary record);
/// protocol violations are reported through TraceCheckReport::failures.
Result<TraceCheckReport> CheckTrace(const TraceFile& trace,
                                    const TraceCheckOptions& options = {});

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_TRACE_CHECK_H_
