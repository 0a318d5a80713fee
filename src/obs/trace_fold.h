#ifndef POLYDAB_OBS_TRACE_FOLD_H_
#define POLYDAB_OBS_TRACE_FOLD_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

/// \file trace_fold.h
/// The one offline cost fold of a causal event trace, and the flamegraphs
/// drawn from it. Where trace_check.h verifies that the recorded totals
/// are *right*, this layer answers *where the message budget went*: every
/// message the trace records — a refresh arrival, a recomputation (priced
/// at mu refresh units, §III's cost model), a DAB-change send, a user
/// notification — is folded along its cause chain into one weighted stack
/// of frames,
///
///   q<query>;i<item>;L<lane>;refresh;violation;recompute;dab_change
///
/// in the Brendan Gregg folded-stack format, so `flamegraph.pl` (or any
/// folded-stack consumer) renders the budget per query, per item and per
/// coordinator lane without re-running the simulation. The same pass
/// yields the per-query table CheckTrace reports (trace_check.h), so the
/// checker and the flamegraph print one attribution.
///
/// The load-bearing correctness property is **conservation**: every
/// message is attributed to exactly one stack, so the folded per-class
/// counts must equal — exactly, integer for integer — the totals the
/// offline replay re-derives from the same events (DeriveTotalStats) and
/// the trailing run_summary records. FoldTrace performs that check itself
/// and reports violations through TraceFoldReport::conservation_failures;
/// tools/polydab_flame.cc turns them into a nonzero exit.
///
/// Stack vocabulary:
///  * Identity frames come first, ordered by FoldGroupBy: `q<id>` (the
///    owning query), `i<id>` (the root-cause item) and `L<id>` (the
///    coordinator lane; only in sharded traces, `L_all` for events not
///    pinned to one lane). A refresh arrival has no query of its own, so
///    it is owned by the first query_info referencing its item
///    (TraceIndex::ItemOwner, the rule the checker's lane checks also
///    use) and `q_unattributed` buckets arrivals no query_info covers.
///  * The cause chain follows: `refresh` (arrival), `refresh;violation;
///    recompute` (dual-DAB), `refresh;recompute` (single-DAB staleness),
///    `aao;recompute` (periodic joint solve), `...;dab_change`,
///    `refresh;notification`.
///  * Sharded traces are first class: shard_barrier events fold as
///    `...;shard_barrier` stacks attributed to the merging query (the one
///    whose recompute triggered the cross-lane EQI merge; `q_all` for the
///    global AAO barrier), weighted by the number of lanes joined.
///    Barriers are synchronization, not §III messages, so they are
///    reported separately and excluded from the conservation totals.

namespace polydab::obs {

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

/// Recomputation price shared by the checker and the folder: an explicit
/// non-negative \p mu_option wins, else the trace's `mu` info key, else
/// the paper's default of 5.
double ResolveTraceMu(const TraceFile& trace, double mu_option);

/// Accumulate one event's contribution to the re-derived message counts
/// (the kind -> SimMetrics-field mapping the replay uses everywhere).
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

/// (node, id) composite key of the offline passes' per-node tables: id is
/// an item, query, source or lane.
inline int64_t TraceKey(int32_t node, int32_t id) {
  return (static_cast<int64_t>(node) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(id));
}

/// The lookups the checker and the folder share, built once per trace.
class TraceIndex {
 public:
  explicit TraceIndex(const TraceFile& trace);

  /// The event with id \p id, or null when the trace has none.
  const TraceEvent* Event(uint64_t id) const;
  /// The first query_info on \p node referencing \p item (first wins, as
  /// the simulator assigns an item's home lane), or -1 when none does.
  int32_t ItemOwner(int32_t node, int32_t item) const;

 private:
  std::unordered_map<uint64_t, const TraceEvent*> by_id_;
  std::unordered_map<int64_t, int32_t> item_owner_;  // TraceKey -> query
};

/// Which identity frame roots the folded stacks (and therefore the
/// flamegraph): per-query (default), per-item, or per-lane.
enum class FoldGroupBy : uint8_t { kQuery, kItem, kLane };

/// Serialization name, e.g. "query".
const char* Name(FoldGroupBy group_by);
/// Inverse of Name; false when the name is unknown.
bool ParseFoldGroupBy(const std::string& name, FoldGroupBy* out);

struct TraceFoldOptions {
  /// Recomputation cost in refresh-message units. Negative (default):
  /// use the trace's `mu` info key when present, else the paper's
  /// default of 5 (ResolveTraceMu, which trace_check also applies).
  double mu = -1.0;
  FoldGroupBy group_by = FoldGroupBy::kQuery;
};

/// One folded stack: semicolon-joined frames, the number of events that
/// folded into it, and their total message cost (count x per-event cost:
/// 1 for refreshes / DAB changes / notifications, mu for recomputations,
/// lanes-joined for barriers).
struct FoldedStack {
  std::string frames;
  int64_t count = 0;
  double weight = 0.0;

  /// The JSON summary's `stack` record (obs/record.h).
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("frames", s.frames);
    v("count", s.count);
    v("weight", s.weight);
  }
};

/// One row of an attribution table: message counts and total cost for one
/// query / item / lane. key -1 is the unattributed bucket (per-query
/// table), the AAO/global bucket (per-item table) or the serial
/// coordinator (per-lane table).
struct FoldAttributionRow {
  int32_t key = -1;
  int64_t refreshes = 0;
  int64_t recomputations = 0;
  int64_t dab_changes = 0;
  int64_t notifications = 0;
  int64_t barriers = 0;
  /// refreshes + mu * recomputations — the paper's total-cost metric,
  /// restricted to this row.
  double cost = 0.0;
  /// Per-query table only, and not serialized: item -> number of the
  /// query's recomputations whose cause chain roots at a refresh of that
  /// item (the `i<item>` frame; AAO solves have none), by count
  /// descending.
  std::vector<std::pair<int32_t, int64_t>> root_items;

  /// The JSON summary's `attribution` record (obs/record.h), after the
  /// table's name under "by".
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("key", s.key);
    v("refreshes", s.refreshes);
    v("recomputations", s.recomputations);
    v("dab_changes", s.dab_changes);
    v("notifications", s.notifications);
    v("barriers", s.barriers);
    v("cost", s.cost);
  }
};

struct TraceFoldReport {
  double mu = 0.0;             ///< the mu the folding priced recomputes at
  FoldGroupBy group_by = FoldGroupBy::kQuery;
  int64_t events = 0;          ///< events in the input trace
  bool sharded = false;        ///< trace carried a coord_shards info key

  /// Folded stacks, sorted lexicographically by frames (deterministic for
  /// goldens and byte-diffable across runs).
  std::vector<FoldedStack> stacks;

  /// Attribution tables, sorted by key ascending.
  std::vector<FoldAttributionRow> by_query;
  std::vector<FoldAttributionRow> by_item;
  std::vector<FoldAttributionRow> by_lane;

  /// Per-class counts summed over the folded stacks; conservation demands
  /// these equal DeriveTotalStats of the same trace.
  TraceDerivedStats attributed;
  int64_t barrier_events = 0;  ///< shard_barrier events folded

  /// Conservation violations: folded class counts vs. the replay-derived
  /// totals and vs. the summed run_summary records. Empty on a healthy
  /// trace.
  std::vector<std::string> conservation_failures;

  bool ok() const { return conservation_failures.empty(); }

  /// Brendan Gregg folded-stack lines: "frame;frame;... weight\n", ready
  /// for flamegraph.pl. Weights render via the shortest-round-trip
  /// JsonNumber, so integral costs print as integers.
  std::string ToFolded() const;
  /// Machine-parsable JSON-lines summary (flat objects in the style of
  /// run_report.h): a fold_info line, stack lines, attribution lines and
  /// a totals line.
  std::string ToJson() const;
  /// Human-readable rendering: verdict, totals, and the top rows of each
  /// attribution table by cost.
  std::string ToText() const;
};

/// \brief Fold \p trace into cost-attribution stacks and run the
/// conservation check. Total: arrivals no query_info covers land in the
/// q_unattributed bucket rather than failing, and conservation violations
/// are reported through TraceFoldReport::conservation_failures. (The
/// Result return keeps the signature open for future structural errors
/// and symmetric with CheckTrace.)
Result<TraceFoldReport> FoldTrace(const TraceFile& trace,
                                  const TraceFoldOptions& options = {});
/// FoldTrace over an already built \p index of \p trace.
TraceFoldReport FoldTrace(const TraceFile& trace, const TraceIndex& index,
                          const TraceFoldOptions& options);

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_TRACE_FOLD_H_
