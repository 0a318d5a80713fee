#ifndef POLYDAB_OBS_TIMESERIES_H_
#define POLYDAB_OBS_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"

/// \file timeseries.h
/// Windowed time-series telemetry over *simulated* time. A SeriesRecorder
/// attaches to a TraceSink as its TraceObserver and folds the event
/// stream into fixed-width windows: window k covers the half-open
/// simulated-time interval (k*W, (k+1)*W] (window 0 additionally includes
/// t = 0), where W is a whole number of simulated seconds. At each window
/// close the recorder snapshots
///  * per-window message-count deltas (refreshes, recomputations, DAB
///    changes, notifications, solver failures, churn ops, fault events)
///    re-derived from the events exactly as obs/trace_check.h does,
///  * fidelity violation/sample counts and the resulting violation rate,
///  * the live query count (initial queries + churn registrations -
///    departures),
///  * a per-window sub-histogram of coordinator queue waits (p50/p90/p99
///    over the kRefreshArrived `b` payloads of that window alone),
///  * optionally (`SeriesConfig::registry`) per-window deltas of every
///    registry counter and the new value of every changed gauge —
///    registry *histograms* contribute a count delta only, because their
///    sums are wall-clock measurements and would make the series file
///    nondeterministic,
///  * optionally (`SeriesConfig::breakdown`) dimensional rows splitting
///    the window's refreshes / recomputations / notifications by
///    coordinator lane, query and source, reusing the events' identity
///    fields,
/// and evaluates the configured SLO rules (obs/slo.h), emitting
/// kAlertFire / kAlertResolve trace events into the attached sink.
///
/// The recorder runs in two modes with *identical* aggregation
/// arithmetic:
///  * engine mode (the simulator): the sim drives window closes at tick
///    boundaries via OnTickEnd — never from inside OnEvent, which runs
///    under the sink's lock — and feeds fidelity sample counts directly
///    (AddFidelitySamples), since sampling is the one input that is not
///    itself a trace event.
///  * replay mode (`SeriesConfig::derive_samples`): the checker / monitor
///    feed a recorded event stream through OnEvent; window closes happen
///    lazily when an event's timestamp passes a boundary (valid because
///    trace event times are nondecreasing in id order), and the fidelity
///    sample grid (ticks stride, 2*stride, ... <= last tick) is re-derived
///    from the churn events and the initial query count.
/// Because both modes fold the same integers and evaluate the same
/// double expressions, a replay reproduces the simulator's series —
/// windows, alerts and totals — exactly, which is what the trace
/// checker's alerting mode (docs/OBSERVABILITY.md) enforces.

namespace polydab::obs {

/// One closed window. JSON field names of the metric fields are the full
/// instrument-style names of MetricFields, which SeriesMetricNames() and
/// SeriesMetricValue() walk; rule DSL metrics resolve against them.
struct SeriesWindow {
  int64_t index = 0;
  double start = 0.0;  ///< exclusive (except window 0, which includes 0)
  double end = 0.0;    ///< inclusive
  int64_t refreshes = 0;
  int64_t recomputations = 0;
  int64_t dab_changes = 0;
  int64_t notifications = 0;
  int64_t solver_failures = 0;
  int64_t violations = 0;
  int64_t samples = 0;
  double violation_rate = 0.0;  ///< violations / max(1, samples)
  int64_t live_queries = 0;     ///< at the window's close
  int64_t registrations = 0;
  int64_t deregistrations = 0;
  int64_t modifications = 0;
  int64_t rejections = 0;
  int64_t fault_drops = 0;
  int64_t retransmits = 0;
  int64_t dups_suppressed = 0;
  int64_t lease_expiries = 0;
  int64_t queue_wait_count = 0;
  double queue_wait_p50 = 0.0;
  double queue_wait_p90 = 0.0;
  double queue_wait_p99 = 0.0;

  bool operator==(const SeriesWindow&) const = default;

  /// The `window` record's field list (obs/record.h): the bounds, then
  /// the metrics, each omitted at zero.
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("index", s.index);
    v("start", s.start);
    v("end", s.end);
    auto omit_zero = [&v](const char* key, auto& m) { v(key, Omit{m, 0}); };
    MetricFields(s, omit_zero);
  }
  /// The per-window metric catalog, in serialization order.
  template <class S, class V>
  static void MetricFields(S& s, V& v) {
    v("sim.coordinator.refreshes", s.refreshes);
    v("sim.coordinator.recomputations", s.recomputations);
    v("sim.coordinator.dab_change_messages", s.dab_changes);
    v("sim.coordinator.user_notifications", s.notifications);
    v("sim.coordinator.solver_failures", s.solver_failures);
    v("sim.fidelity.violations", s.violations);
    v("sim.fidelity.samples", s.samples);
    v("sim.fidelity.violation_rate", s.violation_rate);
    v("sim.run.live_queries", s.live_queries);
    v("svc.service.registrations", s.registrations);
    v("svc.service.deregistrations", s.deregistrations);
    v("svc.service.modifications", s.modifications);
    v("svc.service.rejections", s.rejections);
    v("sim.fault.drops", s.fault_drops);
    v("sim.fault.retransmits", s.retransmits);
    v("sim.fault.duplicates_suppressed", s.dups_suppressed);
    v("sim.fault.lease_expiries", s.lease_expiries);
    v("sim.coordinator.queue_wait_count", s.queue_wait_count);
    v("sim.coordinator.queue_wait_p50", s.queue_wait_p50);
    v("sim.coordinator.queue_wait_p90", s.queue_wait_p90);
    v("sim.coordinator.queue_wait_p99", s.queue_wait_p99);
  }
};

/// One dimensional breakdown row (`SeriesConfig::breakdown`): the share
/// of a window's traffic attributable to one lane / query / source.
/// Only rows with at least one nonzero count are recorded.
struct SeriesDimRow {
  int64_t index = 0;  ///< the window
  std::string dim;    ///< "lane", "query" or "source"
  int32_t id = -1;
  int64_t refreshes = 0;
  int64_t recomputations = 0;
  int64_t notifications = 0;

  bool operator==(const SeriesDimRow&) const = default;

  /// The `window_dim` record's field list (obs/record.h).
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("index", s.index);
    v("dim", s.dim);
    v("id", s.id);
    v("refreshes", Omit{s.refreshes, 0});
    v("recomputations", Omit{s.recomputations, 0});
    v("notifications", Omit{s.notifications, 0});
  }
};

/// One per-window registry instrument sample (`SeriesConfig::registry`):
/// a counter's delta over the window (recorded only when nonzero), a
/// gauge's new value (recorded only when it changed), or a histogram's
/// count delta (sums are wall-clock and deliberately not serialized).
struct SeriesSample {
  int64_t index = 0;
  std::string name;
  std::string kind;  ///< "counter", "gauge" or "histogram"
  double value = 0.0;

  bool operator==(const SeriesSample&) const = default;

  /// The `sample` record's field list (obs/record.h).
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("index", s.index);
    v("name", s.name);
    v("kind", s.kind);
    v("value", s.value);
  }
};

/// Whole-run sums of the windows' integer counters, written as the
/// trailing series_summary record. Conservation: these must equal the
/// run's end-of-run totals (the trace run_summary), which the checker's
/// alerting mode enforces.
struct SeriesTotals {
  int64_t windows = 0;
  int64_t refreshes = 0;
  int64_t recomputations = 0;
  int64_t dab_changes = 0;
  int64_t notifications = 0;
  int64_t solver_failures = 0;
  int64_t violations = 0;
  int64_t samples = 0;
  int64_t registrations = 0;
  int64_t deregistrations = 0;
  int64_t modifications = 0;
  int64_t rejections = 0;
  int64_t fault_drops = 0;
  int64_t retransmits = 0;
  int64_t dups_suppressed = 0;
  int64_t lease_expiries = 0;
  int64_t queue_wait_count = 0;
  int64_t alerts_fired = 0;
  int64_t alerts_resolved = 0;

  bool operator==(const SeriesTotals&) const = default;

  /// The `series_summary` record's field list (obs/record.h); every
  /// count but `windows` is omitted at zero.
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("windows", s.windows);
    auto omit_zero = [&v](const char* key, auto& m) { v(key, Omit{m, 0}); };
    WindowSums(s, omit_zero);
    v("alerts_fired", Omit{s.alerts_fired, 0});
    v("alerts_resolved", Omit{s.alerts_resolved, 0});
  }
  /// The sums of SeriesWindow members of the same names, in wire order.
  template <class S, class V>
  static void WindowSums(S& s, V& v) {
    v("refreshes", s.refreshes);
    v("recomputations", s.recomputations);
    v("dab_changes", s.dab_changes);
    v("notifications", s.notifications);
    v("solver_failures", s.solver_failures);
    v("violations", s.violations);
    v("samples", s.samples);
    v("registrations", s.registrations);
    v("deregistrations", s.deregistrations);
    v("modifications", s.modifications);
    v("rejections", s.rejections);
    v("fault_drops", s.fault_drops);
    v("retransmits", s.retransmits);
    v("dups_suppressed", s.dups_suppressed);
    v("lease_expiries", s.lease_expiries);
    v("queue_wait_count", s.queue_wait_count);
  }
};

/// A recorded (or parsed) series: metadata, the rule set, the closed
/// windows in index order, breakdown / registry-sample rows, the alert
/// transitions and the trailing totals.
struct SeriesFile {
  std::map<std::string, std::string> info;
  std::vector<SloRule> rules;
  std::vector<SeriesWindow> windows;
  std::vector<SeriesDimRow> dims;
  std::vector<SeriesSample> samples;
  std::vector<SloAlert> alerts;
  SeriesTotals totals;
  bool has_totals = false;  ///< Finalize ran / a series_summary was parsed

  bool operator==(const SeriesFile&) const = default;
};

/// JSON-lines rendering (info, slo_rule, window, window_dim, sample,
/// alert, series_summary records; metric fields omitted at zero).
/// ParseSeriesJsonLines inverts it exactly.
std::string SeriesToJsonLines(const SeriesFile& series);
Result<SeriesFile> ParseSeriesJsonLines(const std::string& text);
Status SaveSeriesFile(const SeriesFile& series, const std::string& path);
Result<SeriesFile> LoadSeriesFile(const std::string& path);

/// Rebuild the windowed series from a recorded trace in replay mode: the
/// trace must carry a `series_window_s` info key (i.e. come from a
/// series-out run) and exactly one run summary. This is the same
/// re-derivation the trace checker's alerting mode performs;
/// polydab_monitor uses it to render a series straight from a trace.
Result<SeriesFile> FoldTraceSeries(const TraceFile& trace);

/// The per-window metric catalog (SeriesWindow::MetricFields): every name
/// an SLO rule may reference, in serialization order.
const std::vector<std::string>& SeriesMetricNames();
/// Value of catalog metric \p name in \p w; 0 for unknown names (callers
/// validate names via SeriesMetricNames / ParseSloRules first).
double SeriesMetricValue(const SeriesWindow& w, const std::string& name);

struct SeriesConfig {
  /// Window width in whole simulated seconds (>= 1).
  int64_t window_ticks = 1;
  /// Record per-lane / per-query / per-source breakdown rows.
  bool breakdown = false;
  /// SLO rules evaluated at each close (may be empty).
  std::vector<SloRule> rules;
  /// When set, sample this registry's instruments at each close (engine
  /// mode only; wall-clock histogram sums are never serialized).
  MetricRegistry* registry = nullptr;
  /// Replay mode: re-derive fidelity sample counts from the event stream
  /// (grid = fidelity_stride, 2*stride, ... <= the Finalize time) instead
  /// of AddFidelitySamples calls, and close windows lazily on event-time
  /// advance instead of OnTickEnd.
  bool derive_samples = false;
  int64_t fidelity_stride = 1;  ///< replay mode: the run's sampling stride
};

/// Folds a trace event stream into a SeriesFile. See the file comment for
/// the window semantics and the two driving modes. Not thread-safe; in
/// engine mode every call happens on the (sequential) simulator thread.
class SeriesRecorder : public TraceObserver {
 public:
  explicit SeriesRecorder(SeriesConfig config);
  ~SeriesRecorder() override;

  /// Engine mode: alerts are emitted into \p sink as trace events (the
  /// recorder must also be installed as the sink's observer by the
  /// caller). Replay mode leaves this unset and only records alerts in
  /// the file.
  void SetAlertSink(TraceSink* sink) { alert_sink_ = sink; }

  /// Live queries at t = 0, before any churn event. Must be called before
  /// the first event / close.
  void SetInitialQueries(int64_t n);

  /// TraceObserver: fold one event. Engine mode only accumulates (closing
  /// a window emits alerts, which must not happen under the sink's lock);
  /// replay mode also advances the sample grid and closes passed windows.
  /// Alert events are ignored (skipped entirely), so a replay of a trace
  /// that already contains alerts folds the same inputs the engine did.
  void OnEvent(const TraceEvent& e) override;

  /// Engine mode: one sampled tick's worth of fidelity samples (the live
  /// query count the simulator just sampled).
  void AddFidelitySamples(int64_t live);

  /// Engine mode: simulated time reached the end of tick \p now — close
  /// every window whose end is <= now. Call once per tick, outside any
  /// sink Emit.
  void OnTickEnd(double now);

  /// Close the trailing (possibly partial) window if any time has elapsed
  /// since the last close, take the remaining replay-mode fidelity
  /// samples (grid points <= \p end_time), and compute the totals.
  /// Idempotent once called.
  void Finalize(double end_time);

  bool finalized() const { return finalized_; }
  const SeriesConfig& config() const { return config_; }
  /// The series recorded so far (complete after Finalize).
  const SeriesFile& file() const { return file_; }

 private:
  void ApplyEvent(const TraceEvent& e);
  void TakeSample();               ///< replay mode: one grid point
  void AdvanceReplayTo(double t);  ///< replay: samples/closes strictly below t
  void CloseWindow(double end);

  SeriesConfig config_;
  SloEngine engine_;
  TraceSink* alert_sink_ = nullptr;
  SeriesFile file_;
  bool finalized_ = false;

  // Current-window accumulators.
  int64_t next_index_ = 0;
  double window_start_ = 0.0;
  int64_t cur_violations_ = 0;
  int64_t cur_samples_ = 0;
  int64_t cur_registrations_ = 0;
  int64_t cur_deregistrations_ = 0;
  int64_t cur_modifications_ = 0;
  int64_t cur_rejections_ = 0;
  /// refreshes/recomputations/dab_changes/notifications/solver_failures +
  /// fault counters, accumulated via trace_check.h AccumulateDerivedStats
  /// so the per-window deltas are by construction the checker's own
  /// derivation restricted to the window. Kept behind a pointer so this
  /// header does not depend on trace_check.h.
  struct DerivedBox;
  std::unique_ptr<DerivedBox> derived_;
  std::unique_ptr<Histogram> queue_wait_;  ///< fresh per window
  /// (dim, id) -> counts for the breakdown rows, map-ordered so rows
  /// serialize deterministically. dim: 0 lane, 1 query, 2 source.
  struct DimCounts {
    int64_t refreshes = 0;
    int64_t recomputations = 0;
    int64_t notifications = 0;
  };
  std::map<std::pair<int, int32_t>, DimCounts> cur_dims_;

  // Cross-window state.
  int64_t live_ = 0;              ///< current live query count
  uint64_t last_event_id_ = 0;    ///< last non-alert event folded
  double next_sample_ = 0.0;      ///< replay mode: next grid point
  /// Registry sampling baselines (previous counter values / gauge values /
  /// histogram counts), so per-window deltas need no registry support.
  std::map<std::string, int64_t> prev_counter_;
  std::map<std::string, double> prev_gauge_;
  std::map<std::string, int64_t> prev_hist_count_;
};

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_TIMESERIES_H_
