#include "obs/trace_fold.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "obs/json_util.h"

namespace polydab::obs {

namespace {

constexpr NameOf<FoldGroupBy> kGroupByNames[] = {
    {FoldGroupBy::kQuery, "query"},
    {FoldGroupBy::kItem, "item"},
    {FoldGroupBy::kLane, "lane"}};

/// The cause-chain frames beneath the identity frames, plus the root-cause
/// item the chain resolves to (-1: none, e.g. AAO).
struct Chain {
  std::vector<const char*> frames;
  int32_t item = -1;
};

/// Mutable folding state. One pass over the events; every message-bearing
/// event contributes to exactly one stack and one row of each table.
class Folder {
 public:
  Folder(const TraceFile& trace, const TraceIndex& index, double mu,
         FoldGroupBy group_by)
      : trace_(trace), index_(index), mu_(mu), group_by_(group_by) {
    sharded_ = trace.info.find("coord_shards") != trace.info.end();
  }

  void Run() {
    for (const TraceEvent& e : trace_.events) Fold(e);
  }

  TraceFoldReport Finish() {
    TraceFoldReport report;
    report.mu = mu_;
    report.group_by = group_by_;
    report.events = static_cast<int64_t>(trace_.events.size());
    report.sharded = sharded_;
    report.stacks.reserve(stacks_.size());
    for (auto& [frames, stack] : stacks_) {
      report.stacks.push_back(std::move(stack));
    }
    auto rows = [](const std::map<int32_t, FoldAttributionRow>& m) {
      std::vector<FoldAttributionRow> out;
      out.reserve(m.size());
      for (const auto& [key, row] : m) out.push_back(row);
      return out;
    };
    report.by_query = rows(by_query_);
    for (FoldAttributionRow& row : report.by_query) {
      const std::map<int32_t, int64_t>& roots = root_items_[row.key];
      row.root_items.assign(roots.begin(), roots.end());
      std::stable_sort(row.root_items.begin(), row.root_items.end(),
                       [](const auto& x, const auto& y) {
                         return x.second > y.second;
                       });
    }
    report.by_item = rows(by_item_);
    report.by_lane = rows(by_lane_);
    report.attributed = attributed_;
    report.barrier_events = barrier_events_;
    CheckConservation(&report);
    return report;
  }

 private:
  /// Chain of a recompute_start, walked through its recorded cause.
  Chain StartChain(const TraceEvent& start) const {
    const TraceEvent* c = index_.Event(start.cause);
    if (c == nullptr) return {{"recompute"}, start.item};
    switch (c->kind) {
      case TraceEventKind::kSecondaryViolation:
        return {{"refresh", "violation", "recompute"}, c->item};
      case TraceEventKind::kRefreshArrived:
        return {{"refresh", "recompute"}, c->item};
      case TraceEventKind::kAaoSolve:
        return {{"aao", "recompute"}, -1};
      default:
        return {{"recompute"}, start.item};
    }
  }

  /// Chain of an event caused by a recompute_end or aao_solve (DAB-change
  /// sends, shard barriers): the producing recompute's chain plus \p leaf.
  Chain ProducerChain(const TraceEvent& e, const char* leaf,
                      int32_t* producer_query) const {
    const TraceEvent* c = index_.Event(e.cause);
    if (c != nullptr && c->kind == TraceEventKind::kAaoSolve) {
      return {{"aao", leaf}, -1};
    }
    if (c != nullptr && c->kind == TraceEventKind::kRecomputeEnd) {
      if (producer_query != nullptr) *producer_query = c->query;
      const TraceEvent* start = index_.Event(c->cause);
      Chain chain = start != nullptr ? StartChain(*start)
                                     : Chain{{"recompute"}, c->item};
      chain.frames.push_back(leaf);
      return chain;
    }
    return {{leaf}, e.item};
  }

  void Fold(const TraceEvent& e) {
    switch (e.kind) {
      case TraceEventKind::kRefreshArrived: {
        Add(OwnerOf(e), /*global=*/false, e.item, e.shard,
            {{"refresh"}, e.item}, 1.0, &FoldAttributionRow::refreshes);
        ++attributed_.refreshes;
        break;
      }
      case TraceEventKind::kRecomputeStart: {
        Chain chain = StartChain(e);
        Add(e.query, /*global=*/false, chain.item, e.shard, chain, mu_,
            &FoldAttributionRow::recomputations);
        if (chain.item >= 0) {
          ++root_items_[e.query < 0 ? -1 : e.query][chain.item];
        }
        ++attributed_.recomputations;
        break;
      }
      case TraceEventKind::kDabChangeSent: {
        // Attributed to the shipped item (the filter that changed), not
        // the chain's root item — the message is per-item by definition.
        Chain chain = ProducerChain(e, "dab_change", nullptr);
        Add(e.query, /*global=*/false, e.item, e.shard, chain, 1.0,
            &FoldAttributionRow::dab_changes);
        ++attributed_.dab_change_messages;
        break;
      }
      case TraceEventKind::kUserNotification: {
        Add(e.query, /*global=*/false, e.item, e.shard,
            {{"refresh", "notification"}, e.item}, 1.0,
            &FoldAttributionRow::notifications);
        ++attributed_.user_notifications;
        break;
      }
      case TraceEventKind::kShardBarrier: {
        // The merging query is the one whose recompute required the
        // cross-lane EQI merge; the global AAO barrier belongs to every
        // query (q_all). Weighted by the number of lanes joined. A
        // barrier synchronizes lanes rather than occupying one, so its
        // lane frame is L_all (barriers carry no shard stamp).
        int32_t query = -1;
        Chain chain = ProducerChain(e, "shard_barrier", &query);
        Add(query, /*global=*/query < 0, e.item, e.shard, chain,
            e.b > 0.0 ? e.b : 1.0, &FoldAttributionRow::barriers);
        ++barrier_events_;
        break;
      }
      // Fault-mode events (docs/ROBUSTNESS.md) fold into stacks only —
      // they are reliability overhead, not the paper's message classes,
      // so the attribution tables stay untouched (field = nullptr) and
      // fault-free renderings stay byte-identical.
      case TraceEventKind::kFaultDrop: {
        const int klass = static_cast<int>(e.b);
        Chain chain = klass == 0   ? Chain{{"refresh", "drop"}, e.item}
                      : klass == 1 ? Chain{{"refresh", "retransmit",
                                            "drop"}, e.item}
                      : klass == 2 ? Chain{{"ack", "drop"}, e.item}
                                   : Chain{{"heartbeat", "drop"}, -1};
        Add(klass == 3 ? -1 : OwnerOf(e), /*global=*/false, chain.item,
            e.shard, chain, 1.0, nullptr);
        ++attributed_.fault_drops;
        break;
      }
      case TraceEventKind::kRetransmit: {
        Add(OwnerOf(e), /*global=*/false, e.item, e.shard,
            {{"refresh", "retransmit"}, e.item}, 1.0, nullptr);
        ++attributed_.retransmits;
        break;
      }
      case TraceEventKind::kDupSuppressed: {
        Add(OwnerOf(e), /*global=*/false, e.item, e.shard,
            {{"refresh", "dup_suppressed"}, e.item}, 1.0, nullptr);
        ++attributed_.duplicates_suppressed;
        break;
      }
      case TraceEventKind::kLeaseExpire: {
        Add(OwnerOf(e), /*global=*/false, e.item, e.shard,
            {{"lease_expire"}, e.item}, 1.0, nullptr);
        ++attributed_.lease_expiries;
        break;
      }
      case TraceEventKind::kDegrade: {
        Add(e.query, /*global=*/false, e.item, e.shard,
            {{"lease_expire", "degrade"}, e.item}, 1.0, nullptr);
        break;
      }
      default:
        // Emissions are the source side of the refresh counted at
        // arrival; installs the receive side of the send; violations and
        // recompute ends are intermediate frames; AAO solves, planner and
        // fidelity events carry no message of their own.
        break;
    }
  }

  /// Owning query of an event's item (first query_info referencing it).
  int32_t OwnerOf(const TraceEvent& e) const {
    return index_.ItemOwner(e.node, e.item);
  }

  /// Record one message: one stack (identity frames per group_by, then the
  /// cause chain) and one row increment in each attribution table. A null
  /// \p field records the stack only, leaving every table untouched.
  void Add(int32_t query, bool global, int32_t item, int32_t lane,
           const Chain& chain, double weight,
           int64_t FoldAttributionRow::* field) {
    const std::string qf = global            ? "q_all"
                           : query < 0       ? "q_unattributed"
                                             : "q" + std::to_string(query);
    const std::string itf = item < 0 ? "" : "i" + std::to_string(item);
    // Serial traces omit the lane frame entirely (their stacks predate
    // sharding); sharded traces render unpinned events (barriers) as
    // L_all.
    const std::string lf = !sharded_ ? ""
                           : lane < 0 ? "L_all"
                                      : "L" + std::to_string(lane);
    std::string frames;
    auto append = [&frames](const std::string& f) {
      if (f.empty()) return;
      if (!frames.empty()) frames += ';';
      frames += f;
    };
    switch (group_by_) {
      case FoldGroupBy::kQuery: append(qf); append(itf); append(lf); break;
      case FoldGroupBy::kItem: append(itf); append(qf); append(lf); break;
      case FoldGroupBy::kLane: append(lf); append(qf); append(itf); break;
    }
    for (const char* f : chain.frames) append(f);

    FoldedStack& stack = stacks_[frames];
    if (stack.frames.empty()) stack.frames = frames;
    ++stack.count;
    stack.weight += weight;
    if (field == nullptr) return;

    auto bump = [&](std::map<int32_t, FoldAttributionRow>& table,
                    int32_t key) {
      FoldAttributionRow& row = table[key];
      row.key = key;
      ++(row.*field);
      row.cost = static_cast<double>(row.refreshes) +
                 mu_ * static_cast<double>(row.recomputations);
    };
    bump(by_query_, query < 0 ? -1 : query);
    bump(by_item_, item < 0 ? -1 : item);
    bump(by_lane_, lane < 0 ? -1 : lane);
  }

  /// Conservation: the folded per-class counts must equal the totals an
  /// independent replay derives from the very same events
  /// (trace_check.h::AccumulateDerivedStats), and — when the trace
  /// carries its run summary — the totals the producing run recorded.
  void CheckConservation(TraceFoldReport* report) const {
    const std::vector<SummaryCounter> folded = SummaryCounters(attributed_);
    auto diff = [&](const std::vector<SummaryCounter>& counts,
                    const char* against) {
      for (size_t i = 0; i < folded.size(); ++i) {
        const SummaryCounter& f = folded[i];
        // The folder attributes messages only: the doubles are
        // run-shape quantities and solver failures recompute outcomes.
        if (!f.integral || std::strcmp(f.key, "solver_failures") == 0 ||
            !f.Differs(counts[i])) {
          continue;
        }
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s: folded %" PRId64 " but %s says %" PRId64, f.key,
                      f.count, against, counts[i].count);
        report->conservation_failures.push_back(buf);
      }
    };
    diff(SummaryCounters(DeriveTotalStats(trace_)), "the replay");
    if (trace_.summary) {
      diff(SummaryCounters(*trace_.summary), "the run_summary");
    }
  }

  const TraceFile& trace_;
  const TraceIndex& index_;
  const double mu_;
  const FoldGroupBy group_by_;
  bool sharded_ = false;

  std::map<std::string, FoldedStack> stacks_;  // frames -> stack (sorted)
  std::map<int32_t, FoldAttributionRow> by_query_;
  std::map<int32_t, FoldAttributionRow> by_item_;
  std::map<int32_t, FoldAttributionRow> by_lane_;
  /// query (-1: none) -> root item -> recomputations rooted there.
  std::map<int32_t, std::map<int32_t, int64_t>> root_items_;
  TraceDerivedStats attributed_;
  int64_t barrier_events_ = 0;
};

void AppendRow(std::string* out, const char* label,
               const FoldAttributionRow& row) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  %s %-5d refreshes=%-7" PRId64 " recomputations=%-6" PRId64
                " dab_changes=%-6" PRId64 " notifications=%-6" PRId64
                " barriers=%-4" PRId64 " cost=%.0f\n",
                label, row.key, row.refreshes, row.recomputations,
                row.dab_changes, row.notifications, row.barriers, row.cost);
  *out += buf;
}

/// Top \p limit rows by cost (stable on ties by key order).
std::vector<const FoldAttributionRow*> TopByCost(
    const std::vector<FoldAttributionRow>& rows, size_t limit) {
  std::vector<const FoldAttributionRow*> out;
  out.reserve(rows.size());
  for (const FoldAttributionRow& r : rows) out.push_back(&r);
  std::stable_sort(out.begin(), out.end(),
                   [](const FoldAttributionRow* x,
                      const FoldAttributionRow* y) {
                     return x->cost > y->cost;
                   });
  if (out.size() > limit) out.resize(limit);
  return out;
}

}  // namespace

double ResolveTraceMu(const TraceFile& trace, double mu_option) {
  if (mu_option >= 0.0) return mu_option;
  auto it = trace.info.find("mu");
  if (it != trace.info.end()) {
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end != it->second.c_str() && v >= 0.0) return v;
  }
  return 5.0;  // the paper's default recomputation cost (core::kDefaultMu)
}

void AccumulateDerivedStats(const TraceEvent& e, TraceDerivedStats* d) {
  switch (e.kind) {
    case TraceEventKind::kRefreshArrived: ++d->refreshes; break;
    case TraceEventKind::kRecomputeStart: ++d->recomputations; break;
    case TraceEventKind::kDabChangeSent: ++d->dab_change_messages; break;
    case TraceEventKind::kUserNotification: ++d->user_notifications; break;
    case TraceEventKind::kRecomputeEnd:
      if (e.flag == 0) ++d->solver_failures;
      break;
    case TraceEventKind::kAaoSolve:
      if (e.flag == 0) ++d->solver_failures;
      break;
    case TraceEventKind::kFaultDrop: ++d->fault_drops; break;
    case TraceEventKind::kRetransmit: ++d->retransmits; break;
    case TraceEventKind::kDupSuppressed:
      ++d->duplicates_suppressed;
      break;
    case TraceEventKind::kLeaseExpire: ++d->lease_expiries; break;
    default: break;
  }
}

TraceDerivedStats DeriveTotalStats(const TraceFile& trace) {
  TraceDerivedStats total;
  for (const TraceEvent& e : trace.events) {
    AccumulateDerivedStats(e, &total);
  }
  return total;
}

TraceIndex::TraceIndex(const TraceFile& trace) {
  by_id_.reserve(trace.events.size());
  for (const TraceEvent& e : trace.events) by_id_.emplace(e.id, &e);
  for (const TraceQueryInfo& q : trace.queries) {
    for (int32_t item : q.items) {
      item_owner_.emplace(TraceKey(q.node, item), q.query);
    }
  }
}

const TraceEvent* TraceIndex::Event(uint64_t id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

int32_t TraceIndex::ItemOwner(int32_t node, int32_t item) const {
  auto it = item_owner_.find(TraceKey(node, item));
  return it == item_owner_.end() ? -1 : it->second;
}

const char* Name(FoldGroupBy group_by) {
  return NameFor<FoldGroupBy>(kGroupByNames, group_by);
}

bool ParseFoldGroupBy(const std::string& name, FoldGroupBy* out) {
  return ValueFor<FoldGroupBy>(kGroupByNames, name, out);
}

std::string TraceFoldReport::ToFolded() const {
  std::string out;
  out.reserve(stacks.size() * 48);
  for (const FoldedStack& s : stacks) {
    out += s.frames;
    out += ' ';
    out += JsonNumber(s.weight);
    out += '\n';
  }
  return out;
}

std::string TraceFoldReport::ToJson() const {
  std::string out;
  out.reserve(stacks.size() * 96 + 1024);
  AppendLine("type", "fold_info", [&](LineWriter& w) {
    w("mu", mu);
    w("group_by", Named{group_by, kGroupByNames});
    w("events", events);
    w("sharded", sharded);
  }, &out);
  for (const FoldedStack& s : stacks) {
    AppendRecordLine("type", "stack", s, &out);
  }
  auto table = [&](const char* by,
                   const std::vector<FoldAttributionRow>& rows) {
    for (const FoldAttributionRow& r : rows) {
      AppendLine("type", "attribution", [&](LineWriter& w) {
        w("by", std::string(by));
        FoldAttributionRow::Fields(r, w);
      }, &out);
    }
  };
  table("query", by_query);
  table("item", by_item);
  table("lane", by_lane);
  AppendLine("type", "totals", [&](LineWriter& w) {
    w("refreshes", attributed.refreshes);
    w("recomputations", attributed.recomputations);
    w("dab_change_messages", attributed.dab_change_messages);
    w("user_notifications", attributed.user_notifications);
    w("barrier_events", barrier_events);
    w("conservation_failures", conservation_failures.size());
  }, &out);
  return out;
}

std::string TraceFoldReport::ToText() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "trace-fold: %s  (%" PRId64 " events, %zu stacks, mu=%g, "
                "group-by=%s%s)\n",
                ok() ? "OK" : "FAILED", events, stacks.size(), mu,
                Name(group_by), sharded ? ", sharded" : "");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "attributed: refreshes=%" PRId64 " recomputations=%" PRId64
                " dab_changes=%" PRId64 " notifications=%" PRId64
                " barriers=%" PRId64 " cost=%.0f\n",
                attributed.refreshes, attributed.recomputations,
                attributed.dab_change_messages,
                attributed.user_notifications, barrier_events,
                static_cast<double>(attributed.refreshes) +
                    mu * static_cast<double>(attributed.recomputations));
  out += buf;
  auto table = [&](const char* title, const char* label,
                   const std::vector<FoldAttributionRow>& rows,
                   size_t limit) {
    if (rows.empty()) return;
    std::snprintf(buf, sizeof(buf), "%s (top %zu of %zu by cost):\n",
                  title, std::min(limit, rows.size()), rows.size());
    out += buf;
    for (const FoldAttributionRow* r : TopByCost(rows, limit)) {
      AppendRow(&out, label, *r);
    }
  };
  table("per-query attribution", "query", by_query, 10);
  table("per-item attribution", "item ", by_item, 10);
  table("per-lane attribution", "lane ", by_lane, 16);
  for (const std::string& f : conservation_failures) {
    out += "FAIL: " + f + "\n";
  }
  return out;
}

Result<TraceFoldReport> FoldTrace(const TraceFile& trace,
                                  const TraceFoldOptions& options) {
  return FoldTrace(trace, TraceIndex(trace), options);
}

TraceFoldReport FoldTrace(const TraceFile& trace, const TraceIndex& index,
                          const TraceFoldOptions& options) {
  Folder folder(trace, index, ResolveTraceMu(trace, options.mu),
                options.group_by);
  folder.Run();
  return folder.Finish();
}

}  // namespace polydab::obs
