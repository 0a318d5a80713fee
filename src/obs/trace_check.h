#ifndef POLYDAB_OBS_TRACE_CHECK_H_
#define POLYDAB_OBS_TRACE_CHECK_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/run_report.h"
#include "obs/trace.h"

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
///  (c) attributes cost per query: refreshes on the query's items plus
///      mu * its recomputations, with recomputations traced through the
///      cause chain (recompute -> violation -> arrival -> item) to the
///      root-cause items;
///  (d) for sharded-coordinator traces (a `coord_shards` info key): each
///      lane's event stream is time-monotonic on its own; every
///      query-attributed event carries the lane its query is pinned to
///      (from the query_info partition) and every arrival the item's home
///      lane; a recompute ends on the lane it started; and a DAB change
///      for an item whose queries span several lanes — a cross-lane EQI
///      merge — only ships after a shard_barrier event later than the
///      change that triggered it. Serial traces carry no lane stamps and
///      skip these checks;
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

/// SimMetrics re-derived from raw events and the run summary's shape.
struct TraceDerivedStats {
  int64_t refreshes = 0;
  int64_t recomputations = 0;
  int64_t dab_change_messages = 0;
  int64_t user_notifications = 0;
  int64_t solver_failures = 0;
  double mean_fidelity_loss_pct = 0.0;
  // Fault-mode counters (docs/ROBUSTNESS.md); all zero for fault-free
  // traces. degraded_query_seconds is re-derived from the degrade /
  // recover state machine sampled at the run's fidelity stride, exactly
  // as the simulator accumulated it.
  int64_t fault_drops = 0;
  int64_t retransmits = 0;
  int64_t duplicates_suppressed = 0;
  int64_t lease_expiries = 0;
  double degraded_query_seconds = 0.0;
};

/// Recomputation price shared by the checker and the folder
/// (trace_fold.h): an explicit non-negative \p mu_option wins, else the
/// trace's `mu` info key, else the paper's default of 5.
double ResolveTraceMu(const TraceFile& trace, double mu_option);

/// Accumulate one event's contribution to the re-derived message counts
/// (the kind -> SimMetrics-field mapping the replay uses everywhere).
/// Shared with the flamegraph folder (trace_fold.h), whose conservation
/// check must compare against exactly the totals this checker re-derives.
void AccumulateDerivedStats(const TraceEvent& e, TraceDerivedStats* d);

/// Message totals re-derived from the raw events across every node of the
/// trace. mean_fidelity_loss_pct stays 0 — it needs the run summary's
/// shape, and is not a message class.
TraceDerivedStats DeriveTotalStats(const TraceFile& trace);

/// One run-summary total, as the replay diffs compare and print it.
struct SummaryCounter {
  const char* key;
  bool integral;  ///< an int64 count (else the double `value`)
  int64_t count;
  double value;

  bool Differs(const SummaryCounter& o) const {
    return count != o.count || value != o.value;
  }
  std::string Text() const {
    return integral ? std::to_string(count) : std::to_string(value);
  }
};

/// TraceRunSummary::Counters walked over \p s — a TraceRunSummary or a
/// TraceDerivedStats, which holds the same members — in wire order.
template <class S>
std::vector<SummaryCounter> SummaryCounters(const S& s) {
  std::vector<SummaryCounter> out;
  auto collect = [&out](const char* key, const auto& field) {
    const auto& m = Member(field);
    if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(m)>>) {
      out.push_back({key, true, m, 0.0});
    } else {
      out.push_back({key, false, 0, m});
    }
  };
  TraceRunSummary::Counters(s, collect);
  return out;
}

/// Per-query cost attribution.
struct TraceQueryCost {
  int32_t query = -1;
  int32_t node = -1;
  int64_t refreshes = 0;       ///< arrivals of the query's items at its node
  int64_t recomputations = 0;  ///< recompute starts for this query
  double cost = 0.0;           ///< refreshes + mu * recomputations
  /// Root-cause attribution: item -> number of this query's
  /// recomputations whose cause chain ends at a refresh of that item
  /// (AAO-caused recomputations have no root item). Sorted by count,
  /// descending.
  std::vector<std::pair<int32_t, int64_t>> root_items;
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
  std::vector<TraceQueryCost> queries;

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
