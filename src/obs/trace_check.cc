#include "obs/trace_check.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <unordered_map>

#include "common/hash.h"
#include "obs/json_util.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace polydab::obs {

namespace {

/// Mutable checking state threaded through the per-event switch.
class Checker {
 public:
  Checker(const TraceFile& trace, const TraceCheckOptions& options,
          TraceCheckReport* report)
      : trace_(trace), options_(options), report_(report) {
    origin_it_ = trace.info.find("origin");
    method_it_ = trace.info.find("method");
    for (const TraceRunSummary& s : trace.summaries) {
      tol_by_node_.emplace(s.node, s.violation_tol);
    }
    for (const TraceQueryInfo& q : trace.queries) {
      query_info_[Key(q.node, q.query)] = &q;
    }
    // Sharded-coordinator traces (coord_shards > 1) carry lane stamps;
    // re-derive each item's home lane (the lane of the first query_info
    // referencing it, matching the simulator's assignment) and the lane
    // set touching it, so arrivals and cross-lane merges are checkable.
    sharded_ = trace.info.find("coord_shards") != trace.info.end();
    if (sharded_) {
      for (const TraceQueryInfo& q : trace.queries) {
        for (int32_t item : q.items) {
          item_home_.emplace(Key(q.node, item), q.shard);  // first wins
          item_lanes_[Key(q.node, item)].insert(q.shard);
        }
      }
    }
    // Fault-mode traces (docs/ROBUSTNESS.md) self-describe the protocol
    // constants and the item -> source mapping the reliability checks
    // need; fault events in a trace without the key are themselves
    // invariant violations.
    fault_mode_ = trace.info.find("fault_config") != trace.info.end();
    if (fault_mode_) {
      num_sources_ = static_cast<int64_t>(InfoNum("num_sources", 0.0));
      lease_s_ = InfoNum("fault_lease_s", 0.0);
      retx_timeout_s_ = InfoNum("fault_retx_timeout_s", 0.0);
      for (const TraceQueryInfo& q : trace.queries) {
        for (int32_t item : q.items) {
          item_queries_[Key(q.node, item)].push_back(q.query);
          if (num_sources_ > 0) {
            source_items_[Key(q.node, static_cast<int32_t>(
                                          item % num_sources_))]
                .insert(item);
          }
        }
      }
    }
    // Service-churn traces (docs/SERVICE.md) are recognised by the
    // presence of churn events. Churn-free traces leave churn_mode_
    // false and take none of the dynamic-state branches below, so they
    // are checked exactly as before the service layer existed.
    for (const TraceEvent& e : trace.events) {
      switch (e.kind) {
        case TraceEventKind::kQueryRegister:
          churn_reg_keys_.insert(Key(e.node, e.query));
          churn_mode_ = true;
          break;
        case TraceEventKind::kQueryModify:
        case TraceEventKind::kQueryDeregister:
        case TraceEventKind::kAdmissionReject:
        case TraceEventKind::kPlanPatch:
          churn_mode_ = true;
          break;
        default:
          break;
      }
    }
    // Series traces (docs/OBSERVABILITY.md "Time series, SLOs and
    // monitoring") self-describe the window width and SLO rule set; alert
    // events in a trace without the key are invariant violations, and the
    // deep per-window replay happens in CheckSeries.
    series_mode_ = trace.info.find("series_window_s") != trace.info.end();
    if (series_mode_) {
      auto rit = trace.info.find("slo_rules");
      if (rit != trace.info.end()) {
        auto parsed = ParseSloRules(rit->second, SeriesMetricNames());
        if (parsed.ok()) {
          slo_rule_count_ = parsed->size();
        } else {
          slo_rules_error_ = "slo_rules info key is malformed: " +
                             parsed.status().message();
          Fail(slo_rules_error_);
        }
      }
    }
    if (churn_mode_) {
      coord_shards_count_ =
          sharded_ ? static_cast<int>(InfoNum("coord_shards", 1.0)) : 1;
      auto pit = trace.info.find("shard_policy");
      policy_component_ =
          pit == trace.info.end() || pit->second == "eqi_components";
      for (const TraceQueryInfo& q : trace.queries) {
        const int64_t k = Key(q.node, q.query);
        dyn_qab_[k] = q.qab;
        dereg_tick_[k] = std::numeric_limits<int64_t>::max();
        if (churn_reg_keys_.count(k) != 0) {
          active_[k] = false;  // registered later by its churn event
        } else {
          active_[k] = true;
          reg_tick_[k] = 0;
          active_order_[q.node].push_back(&q);
          for (int32_t item : q.items) {
            dyn_item_queries_[Key(q.node, item)].push_back(q.query);
          }
          partition_dirty_.insert(q.node);
        }
      }
    }
    by_id_.reserve(trace.events.size());
    for (const TraceEvent& e : trace.events) by_id_.emplace(e.id, &e);
  }

  void Run() {
    const TraceEvent* prev = nullptr;
    for (const TraceEvent& e : trace_.events) {
      CheckOrdering(e, prev);
      CheckEvent(e);
      prev = &e;
    }
    // Every recompute must have finished exactly once (checked per end
    // above; zero ends is only visible here).
    for (const auto& [id, ends] : ends_of_start_) {
      if (ends == 0) {
        Fail("recompute_start #" + std::to_string(id) +
             " has no recompute_end");
      }
    }
    // The planner is invoked exactly once per non-AAO recomputation
    // (core::ReplanPart); AAO solves bypass it. Only meaningful when the
    // producer wired the planner (it emits planner_plan for the initial
    // plans, so any planner event implies full wiring).
    if (planner_events_ > 0 && planner_replans_ != starts_non_aao_) {
      Fail("planner_replan count " + std::to_string(planner_replans_) +
           " != non-AAO recompute_start count " +
           std::to_string(starts_non_aao_));
    }
    // Every degrade / recover the state machine required must have been
    // emitted (the matching events claim their transition as they pass).
    for (const auto& [id, qkeys] : pending_degrade_) {
      for (int64_t qk : qkeys) {
        Fail("lease_expire #" + std::to_string(id) + " degraded query " +
             std::to_string(static_cast<int32_t>(qk)) +
             " without a degrade event");
      }
    }
    for (const auto& [id, qkeys] : pending_recover_) {
      for (int64_t qk : qkeys) {
        Fail("contact #" + std::to_string(id) + " recovered query " +
             std::to_string(static_cast<int32_t>(qk)) +
             " without a recover event");
      }
    }
    CheckDropResolution();
  }

  /// Every dropped data copy must be resolved — retransmitted at/above
  /// its seq, superseded by a newer emission, delivered through another
  /// copy, or lease-expired. Amnesty when the trace ends before the
  /// protocol had time: the retransmit gap is capped at 8x the timeout,
  /// extended by the source's crash outages after the drop, plus slack.
  void CheckDropResolution() {
    for (const DataDrop& d : data_drops_) {
      auto ri = resolutions_.find(Key(d.node, d.item));
      bool resolved = false;
      if (ri != resolutions_.end()) {
        for (const Resolution& r : ri->second) {
          if (r.kind == kResDelivered) {
            if (r.seq >= d.seq) { resolved = true; break; }
          } else if (r.id > d.id) {
            if ((r.kind == kResRetransmit && r.seq >= d.seq) ||
                (r.kind == kResEmitted && r.seq > d.seq) ||
                r.kind == kResLease) {
              resolved = true;
              break;
            }
          }
        }
      }
      if (resolved) continue;
      double deadline =
          d.time + 8.0 * (retx_timeout_s_ > 0.0 ? retx_timeout_s_ : 2.0) +
          2.0;
      if (num_sources_ > 0) {
        auto cw = crash_windows_.find(
            Key(d.node, static_cast<int32_t>(d.item % num_sources_)));
        if (cw != crash_windows_.end()) {
          for (const auto& [start, dur] : cw->second) {
            if (start + dur > d.time) deadline += dur;
          }
        }
      }
      auto lt = last_time_.find(d.node);
      if (lt == last_time_.end() || deadline >= lt->second) continue;
      Fail("fault_drop #" + std::to_string(d.id) + " (item " +
           std::to_string(d.item) + ", seq " + std::to_string(d.seq) +
           ", t=" + std::to_string(d.time) +
           ") was never retransmitted, superseded, delivered or "
           "lease-expired");
    }
  }

  /// Number of fidelity-violation samples recorded for (node, query).
  int64_t FidelityViolations(int32_t node, int32_t query) const {
    auto it = fidelity_counts_.find(Key(node, query));
    return it == fidelity_counts_.end() ? 0 : it->second;
  }

  /// Degrade/recover transitions for (node, query) as (time, state) in
  /// event order, or null when the query never degraded. Drives the
  /// degraded_query_seconds re-derivation in Derive().
  const std::vector<std::pair<double, int>>* DegradeDeltas(
      int32_t node, int32_t query) const {
    auto it = degrade_deltas_.find(Key(node, query));
    return it == degrade_deltas_.end() ? nullptr : &it->second;
  }

  /// Churn traces carry a dynamic query population; Derive() needs each
  /// query's registration interval to reproduce the engine's per-query
  /// fidelity denominators.
  bool churn_mode() const { return churn_mode_; }
  /// The failure a malformed slo_rules info key was reported as ("" if
  /// none).
  const std::string& slo_rules_error() const { return slo_rules_error_; }
  int64_t RegTick(int32_t node, int32_t query) const {
    auto it = reg_tick_.find(Key(node, query));
    return it == reg_tick_.end() ? 0 : it->second;
  }
  int64_t DeregTick(int32_t node, int32_t query) const {
    auto it = dereg_tick_.find(Key(node, query));
    return it == dereg_tick_.end() ? std::numeric_limits<int64_t>::max()
                                   : it->second;
  }

 private:
  static int64_t Key(int32_t node, int32_t other) {
    return (static_cast<int64_t>(node) << 32) |
           static_cast<int64_t>(static_cast<uint32_t>(other));
  }

  void Fail(const std::string& what) {
    ++report_->failure_count;
    if (report_->failures.size() < options_.max_failures) {
      report_->failures.push_back(what);
    }
  }
  void FailEvent(const TraceEvent& e, const std::string& what) {
    Fail("event #" + std::to_string(e.id) + " (" + Name(e.kind) +
         ", t=" + std::to_string(e.time) + "): " + what);
  }

  bool OriginIs(const char* origin) const {
    return origin_it_ != trace_.info.end() && origin_it_->second == origin;
  }
  bool MethodKnown() const { return method_it_ != trace_.info.end(); }
  bool MethodIsDual() const {
    return MethodKnown() && method_it_->second == "dual";
  }

  /// Numeric info key, or \p dflt when absent/unparsable.
  double InfoNum(const char* key, double dflt) const {
    auto it = trace_.info.find(key);
    if (it == trace_.info.end()) return dflt;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    return end == it->second.c_str() ? dflt : v;
  }

  /// The source of \p e is mid-crash iff the latest recorded crash window
  /// still covers e.time — the exact float comparison the simulator ran.
  void CheckNotCrashed(const TraceEvent& e) {
    auto it = crash_state_.find(Key(e.node, e.source));
    if (it != crash_state_.end() && it->second.first > e.time) {
      FailEvent(e, "source " + std::to_string(e.source) +
                       " emitted inside its crash window (until " +
                       std::to_string(it->second.first) + ")");
    }
  }

  /// A message from source e.source reached the coordinator (arrival,
  /// suppressed duplicate, or heartbeat): refresh the lease clock and
  /// un-expire the source's items, recovering queries whose degraded-item
  /// count drops to zero — mirroring the simulator's record_contact.
  void FaultContact(const TraceEvent& e) {
    const int64_t skey = Key(e.node, e.source);
    contact_[skey] = {e.time, e.id};
    auto si = source_items_.find(skey);
    if (si == source_items_.end()) return;
    for (int32_t item : si->second) {
      auto xi = item_expired_.find(Key(e.node, item));
      if (xi == item_expired_.end() || !xi->second) continue;
      xi->second = false;
      for (int32_t q : item_queries_[Key(e.node, item)]) {
        const int64_t qkey = Key(e.node, q);
        if (--degraded_count_[qkey] == 0) {
          pending_recover_[e.id].insert(qkey);
          degrade_id_[qkey] = 0;
          degrade_deltas_[qkey].push_back({e.time, 0});
        }
      }
    }
  }

  /// The violation tolerance the producing run used for this node's
  /// secondary-range and fidelity checks.
  double TolFor(int32_t node) const {
    auto it = tol_by_node_.find(node);
    if (it != tol_by_node_.end()) return it->second;
    it = tol_by_node_.find(-1);
    if (it != tol_by_node_.end()) return it->second;
    return 0.0;
  }

  const TraceEvent* Cause(const TraceEvent& e) {
    if (e.cause == 0) {
      FailEvent(e, "missing cause id");
      return nullptr;
    }
    auto it = by_id_.find(e.cause);
    if (it == by_id_.end()) {
      FailEvent(e, "cause #" + std::to_string(e.cause) + " not in trace");
      return nullptr;
    }
    if (it->second->id >= e.id) {
      FailEvent(e, "cause #" + std::to_string(e.cause) +
                       " does not precede the event");
      return nullptr;
    }
    return it->second;
  }
  /// Cause that must exist and be of one specific kind.
  const TraceEvent* CauseOfKind(const TraceEvent& e, TraceEventKind kind) {
    const TraceEvent* c = Cause(e);
    if (c == nullptr) return nullptr;
    if (c->kind != kind) {
      FailEvent(e, std::string("cause #") + std::to_string(c->id) +
                       " has kind " + Name(c->kind) + ", expected " +
                       Name(kind));
      return nullptr;
    }
    return c;
  }

  void CheckOrdering(const TraceEvent& e, const TraceEvent* prev) {
    if (e.id == 0) FailEvent(e, "event id 0 is reserved");
    if (prev != nullptr && e.id <= prev->id) {
      FailEvent(e, "ids not strictly increasing (previous #" +
                       std::to_string(prev->id) + ")");
    }
    // coord_crash / recovery_replay mark the crash boundary: they are
    // stamped with the crash tick T but sit *before* tick T's message
    // deliveries, whose arrival times fall in (T-1, T]. They must not
    // run ahead of the monotonicity watermark themselves, but advancing
    // it to T would falsely flag those in-flight arrivals as regressions
    // (docs/RECOVERY.md).
    const bool crash_boundary = e.kind == TraceEventKind::kCoordCrash ||
                                e.kind == TraceEventKind::kRecoveryReplay;
    auto [it, fresh] = last_time_.emplace(e.node, e.time);
    if (!fresh) {
      if (e.time < it->second) {
        FailEvent(e, "time goes backwards on node " +
                         std::to_string(e.node));
      }
      if (!crash_boundary) it->second = e.time;
    } else if (crash_boundary) {
      it->second = 0.0;
    }
    // Each coordinator lane is itself a serial resource: its event stream
    // must be time-monotonic on its own.
    if (e.shard != -1) {
      auto [sit, sfresh] =
          last_time_shard_.emplace(Key(e.node, e.shard), e.time);
      if (!sfresh) {
        if (e.time < sit->second) {
          FailEvent(e, "time goes backwards on lane " +
                           std::to_string(e.shard) + " of node " +
                           std::to_string(e.node));
        }
        sit->second = e.time;
      }
    }
  }

  /// Sharded traces: an event attributed to a query must carry the lane
  /// that query is pinned to. Static traces read the partition from
  /// query_info; churn traces re-derive it from the active set, since
  /// registrations and departures move queries between lanes.
  void CheckQueryLane(const TraceEvent& e) {
    if (!sharded_) return;
    if (churn_mode_) {
      auto it = active_.find(Key(e.node, e.query));
      if (it != active_.end() && it->second) {
        const int32_t lane = DynLane(e.node, e.query);
        if (e.shard != lane) {
          FailEvent(e, "lane " + std::to_string(e.shard) +
                           " differs from query " + std::to_string(e.query) +
                           "'s current lane " + std::to_string(lane));
        }
      }
      return;
    }
    auto it = query_info_.find(Key(e.node, e.query));
    if (it != query_info_.end() && e.shard != it->second->shard) {
      FailEvent(e, "lane " + std::to_string(e.shard) +
                       " differs from query " + std::to_string(e.query) +
                       "'s lane " + std::to_string(it->second->shard));
    }
  }

  /// From-scratch rebuild of the engine's post-churn partition for one
  /// node: union-find over the active queries' item sets, components
  /// labelled by their smallest query id, lanes from the shared Mix64
  /// hash (common/hash.h). Events and plan_patch digests are verified
  /// against this — the rebuild half of the incremental-equals-rebuild
  /// invariant.
  void RecomputePartition(int32_t node) {
    auto& order = active_order_[node];
    const int n = static_cast<int>(order.size());
    std::vector<int> parent(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
    auto find = [&parent](int x) {
      while (parent[static_cast<size_t>(x)] != x) {
        parent[static_cast<size_t>(x)] =
            parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
        x = parent[static_cast<size_t>(x)];
      }
      return x;
    };
    std::map<int32_t, int> first_with_item;
    for (int i = 0; i < n; ++i) {
      for (int32_t item : order[static_cast<size_t>(i)]->items) {
        auto [it, fresh] = first_with_item.emplace(item, i);
        if (!fresh) {
          const int a = find(it->second);
          const int b = find(i);
          if (a != b) parent[static_cast<size_t>(b)] = a;
        }
      }
    }
    std::map<int, int32_t> comp_min;
    for (int i = 0; i < n; ++i) {
      auto [it, fresh] =
          comp_min.emplace(find(i), order[static_cast<size_t>(i)]->query);
      if (!fresh) {
        it->second = std::min(it->second,
                              order[static_cast<size_t>(i)]->query);
      }
    }
    dyn_num_components_[node] = static_cast<int64_t>(comp_min.size());
    const uint64_t shards =
        static_cast<uint64_t>(std::max(1, coord_shards_count_));
    for (int i = 0; i < n; ++i) {
      const TraceQueryInfo* q = order[static_cast<size_t>(i)];
      const int32_t comp = comp_min[find(i)];
      const int32_t hashed = policy_component_ ? comp : q->query;
      const int64_t k = Key(node, q->query);
      dyn_comp_min_[k] = comp;
      dyn_shard_[k] = static_cast<int32_t>(
          Mix64(static_cast<uint64_t>(static_cast<int64_t>(hashed))) %
          shards);
    }
  }
  void EnsurePartition(int32_t node) {
    if (partition_dirty_.erase(node) != 0) RecomputePartition(node);
  }
  int32_t DynLane(int32_t node, int32_t query) {
    EnsurePartition(node);
    auto it = dyn_shard_.find(Key(node, query));
    return it == dyn_shard_.end() ? -1 : it->second;
  }

  /// Churn mode: an event that charges cost to a query may only occur
  /// inside that query's registration interval.
  void CheckActiveQuery(const TraceEvent& e) {
    if (!churn_mode_ || e.query < 0) return;
    auto it = active_.find(Key(e.node, e.query));
    if (it == active_.end() || !it->second) {
      FailEvent(e, "query " + std::to_string(e.query) +
                       " charged outside its registration interval");
    }
  }

  void CheckEvent(const TraceEvent& e) {
    switch (e.kind) {
      case TraceEventKind::kRefreshEmitted: {
        // The emission is self-certifying: the new value must escape the
        // filter width that was in force, relative to the last push.
        if (!(std::fabs(e.a - e.c) > e.b)) {
          FailEvent(e, "pushed value did not escape the installed filter "
                       "(|" + std::to_string(e.a) + " - " +
                       std::to_string(e.c) + "| <= " + std::to_string(e.b) +
                       ")");
        }
        // The single-coordinator simulator additionally guarantees the
        // width in force is the most recently installed one (the relay
        // overlay's per-subtree requirements change without install
        // events, so this is origin-gated).
        if (OriginIs("sim")) {
          auto it = installed_.find(Key(e.node, e.item));
          if (it == installed_.end()) {
            FailEvent(e, "refresh emitted for an item with no installed "
                         "filter");
          } else if (it->second != e.b) {
            FailEvent(e, "filter width " + std::to_string(e.b) +
                             " differs from installed width " +
                             std::to_string(it->second));
          }
        }
        // Push chain: this emission's reference value is the previous
        // emission's value on the same (node, source, item) edge.
        const int64_t edge =
            Key(e.node, e.item) * 31 + static_cast<int64_t>(e.source);
        auto [it2, fresh] = last_emitted_.emplace(edge, e.a);
        if (!fresh) {
          if (it2->second != e.c) {
            FailEvent(e, "reference value " + std::to_string(e.c) +
                             " is not the previously pushed value " +
                             std::to_string(it2->second));
          }
          it2->second = e.a;
        }
        // Fault mode: emissions are sequence-numbered 1, 2, 3, ... per
        // (node, item), and a crashed source emits nothing.
        if (fault_mode_ && e.flag != 0) {
          auto& last = last_emit_seq_[Key(e.node, e.item)];
          if (e.flag != last + 1) {
            FailEvent(e, "refresh seq " + std::to_string(e.flag) +
                             " does not follow the previous seq " +
                             std::to_string(last));
          }
          last = e.flag;
          CheckNotCrashed(e);
          resolutions_[Key(e.node, e.item)].push_back(
              {e.id, e.time, e.flag, kResEmitted});
        }
        break;
      }
      case TraceEventKind::kRefreshArrived: {
        const TraceEvent* c = Cause(e);
        if (c != nullptr) {
          // In fault mode a delivered copy may also be a retransmission.
          if (c->kind != TraceEventKind::kRefreshEmitted &&
              !(fault_mode_ && c->kind == TraceEventKind::kRetransmit)) {
            FailEvent(e, std::string("cause #") + std::to_string(c->id) +
                             " has kind " + Name(c->kind) +
                             ", expected refresh_emitted" +
                             (fault_mode_ ? " or retransmit" : ""));
            c = nullptr;
          }
        }
        if (c != nullptr) {
          if (c->node != e.node || c->item != e.item) {
            FailEvent(e, "arrival does not match its emission's node/item");
          }
          if (c->a != e.a) {
            FailEvent(e, "arrived value " + std::to_string(e.a) +
                             " differs from emitted value " +
                             std::to_string(c->a));
          }
          if (c->time > e.time) {
            FailEvent(e, "arrival precedes its emission");
          }
          if (fault_mode_ && e.flag != 0 && c->flag != e.flag) {
            FailEvent(e, "arrival seq " + std::to_string(e.flag) +
                             " differs from its emission's seq " +
                             std::to_string(c->flag));
          }
        }
        if (e.b < 0.0) FailEvent(e, "negative queue wait");
        if (fault_mode_ && e.flag != 0) {
          const int64_t ikey = Key(e.node, e.item);
          auto& delivered = delivered_seq_[ikey];
          if (e.flag <= delivered) {
            FailEvent(e, "seq " + std::to_string(e.flag) +
                             " delivered twice (already at " +
                             std::to_string(delivered) +
                             "); should have been dup_suppressed");
          }
          delivered = e.flag;
          resolutions_[ikey].push_back(
              {e.id, e.time, e.flag, kResDelivered});
          FaultContact(e);
        }
        if (sharded_) {
          if (churn_mode_) {
            // An in-flight refresh for an item whose last query departed
            // drains on lane 0 (the engine's home < 0 fallback).
            auto it = dyn_item_queries_.find(Key(e.node, e.item));
            const int32_t home =
                it == dyn_item_queries_.end() || it->second.empty()
                    ? 0
                    : DynLane(e.node, it->second.front());
            if (e.shard != home) {
              FailEvent(e, "arrival on lane " + std::to_string(e.shard) +
                               " but item " + std::to_string(e.item) +
                               "'s home lane is " + std::to_string(home));
            }
          } else {
            auto it = item_home_.find(Key(e.node, e.item));
            if (it == item_home_.end()) {
              FailEvent(e, "arrival for an item no query_info references");
            } else if (e.shard != it->second) {
              FailEvent(e, "arrival on lane " + std::to_string(e.shard) +
                               " but item " + std::to_string(e.item) +
                               "'s home lane is " +
                               std::to_string(it->second));
            }
          }
        }
        break;
      }
      case TraceEventKind::kSecondaryViolation: {
        const TraceEvent* c =
            CauseOfKind(e, TraceEventKind::kRefreshArrived);
        if (c != nullptr &&
            (c->node != e.node || c->item != e.item || c->a != e.a)) {
          FailEvent(e, "violation does not match its arrival");
        }
        CheckActiveQuery(e);
        CheckQueryLane(e);
        // The value must really lie outside the secondary range around
        // the anchor — the exact §III-A.2 test the coordinator ran.
        const double limit = e.c * (1.0 + TolFor(e.node));
        if (!(std::fabs(e.a - e.b) > limit)) {
          FailEvent(e, "value " + std::to_string(e.a) +
                           " is within the secondary range (anchor " +
                           std::to_string(e.b) + ", limit " +
                           std::to_string(limit) + ")");
        }
        break;
      }
      case TraceEventKind::kRecomputeStart: {
        const TraceEvent* c = Cause(e);
        if (c != nullptr) {
          const bool dual_cause =
              c->kind == TraceEventKind::kSecondaryViolation ||
              c->kind == TraceEventKind::kAaoSolve;
          const bool single_cause =
              c->kind == TraceEventKind::kRefreshArrived;
          const bool allowed = MethodKnown()
                                   ? (MethodIsDual() ? dual_cause
                                                     : single_cause)
                                   : (dual_cause || single_cause);
          if (!allowed) {
            FailEvent(e, std::string("recompute caused by ") +
                             Name(c->kind) + ", not allowed for method=" +
                             (MethodKnown() ? method_it_->second : "?"));
          }
          if (c->kind != TraceEventKind::kAaoSolve) ++starts_non_aao_;
        }
        if (e.query < 0) FailEvent(e, "recompute without a query id");
        CheckActiveQuery(e);
        CheckQueryLane(e);
        ends_of_start_.emplace(e.id, 0);
        break;
      }
      case TraceEventKind::kRecomputeEnd: {
        const TraceEvent* c =
            CauseOfKind(e, TraceEventKind::kRecomputeStart);
        if (c != nullptr) {
          if (c->query != e.query || c->part != e.part ||
              c->node != e.node) {
            FailEvent(e, "end does not match its start's query/part/node");
          }
          if (c->shard != e.shard) {
            FailEvent(e, "end on lane " + std::to_string(e.shard) +
                             " but its start ran on lane " +
                             std::to_string(c->shard));
          }
          auto it = ends_of_start_.find(c->id);
          if (it != ends_of_start_.end() && ++it->second > 1) {
            FailEvent(e, "recompute_start #" + std::to_string(c->id) +
                             " ended more than once");
          }
        }
        break;
      }
      case TraceEventKind::kDabChangeSent: {
        const TraceEvent* c = Cause(e);
        bool churn_cause = false;
        if (c != nullptr) {
          // Churn transactions (register / modify / deregister) re-solve
          // the touched queries synchronously and ship the resulting
          // filters themselves; those sends carry the churn event as
          // their cause and skip the solve-flag and barrier protocol.
          churn_cause = c->kind == TraceEventKind::kQueryRegister ||
                        c->kind == TraceEventKind::kQueryModify ||
                        c->kind == TraceEventKind::kQueryDeregister;
          if (c->kind != TraceEventKind::kRecomputeEnd &&
              c->kind != TraceEventKind::kAaoSolve && !churn_cause) {
            FailEvent(e, std::string("DAB change caused by ") +
                             Name(c->kind) +
                             ", expected recompute_end or aao_solve");
          } else if (!churn_cause && c->flag != 1) {
            FailEvent(e, "DAB change caused by a failed solve");
          }
          // Relay overlays propagate one recomputation's requirement
          // change up the tree, so hop nodes legitimately differ there.
          if (OriginIs("sim") && c->node != e.node) {
            FailEvent(e, "DAB change sent from a different node than its "
                         "cause");
          }
        }
        if (e.item < 0) FailEvent(e, "DAB change without an item");
        if (e.query >= 0) CheckActiveQuery(e);
        CheckQueryLane(e);
        // A filter for an item whose queries span several lanes is the
        // result of a cross-lane EQI merge: the merge must have gone
        // through a shard barrier emitted after the change that triggered
        // the send (per-item barrier, or the global AAO barrier).
        if (sharded_ && !churn_cause) {
          bool multi_lane = false;
          if (churn_mode_) {
            auto it = dyn_item_queries_.find(Key(e.node, e.item));
            if (it != dyn_item_queries_.end()) {
              std::set<int32_t> lanes;
              for (int32_t q : it->second) {
                lanes.insert(DynLane(e.node, q));
              }
              multi_lane = lanes.size() > 1;
            }
          } else {
            auto lanes = item_lanes_.find(Key(e.node, e.item));
            multi_lane =
                lanes != item_lanes_.end() && lanes->second.size() > 1;
          }
          if (multi_lane) {
            uint64_t barrier = 0;
            auto bit = latest_barrier_.find(Key(e.node, e.item));
            if (bit != latest_barrier_.end()) barrier = bit->second;
            bit = latest_barrier_.find(Key(e.node, -1));
            if (bit != latest_barrier_.end()) {
              barrier = std::max(barrier, bit->second);
            }
            if (barrier <= e.cause) {
              FailEvent(e, "cross-lane DAB change for item " +
                               std::to_string(e.item) +
                               " without a shard barrier after its cause");
            }
          }
        }
        break;
      }
      case TraceEventKind::kDabChangeInstalled: {
        if (e.cause == 0) {
          // Only the synchronous installs of the initial plan (time zero)
          // may appear without a send.
          if (e.time != 0.0) {
            FailEvent(e, "installed without a dab_change_sent cause");
          }
        } else {
          const TraceEvent* c =
              CauseOfKind(e, TraceEventKind::kDabChangeSent);
          if (c != nullptr) {
            if (c->node != e.node || c->item != e.item) {
              FailEvent(e, "install does not match its send's node/item");
            }
            if (c->a != e.a) {
              FailEvent(e, "installed width " + std::to_string(e.a) +
                               " differs from sent width " +
                               std::to_string(c->a));
            }
            if (c->time > e.time) {
              FailEvent(e, "install precedes its send");
            }
          }
        }
        installed_[Key(e.node, e.item)] = e.a;
        break;
      }
      case TraceEventKind::kAaoSolve:
        break;
      case TraceEventKind::kUserNotification: {
        const TraceEvent* c =
            CauseOfKind(e, TraceEventKind::kRefreshArrived);
        if (c != nullptr && c->node != e.node) {
          FailEvent(e, "notification on a different node than its arrival");
        }
        CheckActiveQuery(e);
        CheckQueryLane(e);
        auto it = query_info_.find(Key(e.node, e.query));
        if (it == query_info_.end()) {
          FailEvent(e, "notification for unknown query " +
                           std::to_string(e.query));
        } else {
          // Churn mode tracks the QAB through query_modify events;
          // query_info records only the registration-time value.
          const double qab = churn_mode_ ? dyn_qab_[Key(e.node, e.query)]
                                         : it->second->qab;
          if (!(std::fabs(e.a - e.b) > qab)) {
            FailEvent(e, "result drift |" + std::to_string(e.a) + " - " +
                             std::to_string(e.b) +
                             "| does not exceed the QAB " +
                             std::to_string(qab));
          }
        }
        break;
      }
      case TraceEventKind::kFidelityViolation: {
        CheckActiveQuery(e);
        auto it = query_info_.find(Key(e.node, e.query));
        if (it == query_info_.end()) {
          FailEvent(e, "fidelity sample for unknown query " +
                           std::to_string(e.query));
        } else {
          const double qab = churn_mode_ ? dyn_qab_[Key(e.node, e.query)]
                                         : it->second->qab;
          if (qab != e.c) {
            FailEvent(e, "recorded QAB " + std::to_string(e.c) +
                             " differs from the query's QAB " +
                             std::to_string(qab));
          }
        }
        const double limit = e.c * (1.0 + TolFor(e.node));
        if (!(std::fabs(e.a - e.b) > limit)) {
          FailEvent(e, "sampled drift |" + std::to_string(e.a) + " - " +
                           std::to_string(e.b) +
                           "| does not exceed the QAB limit " +
                           std::to_string(limit));
        }
        // Fault mode: re-derive the violation's attribution from the
        // reliability state at this point of the stream and demand the
        // recorded stamp (flag 1 = degraded, 2 = fault-caused, 0 = benign;
        // cause = the blamed event) matches. A mismatch means the
        // simulator blamed the wrong thing — a protocol bug, not a fault.
        if (fault_mode_) {
          int32_t want_flag = 0;
          uint64_t want_cause = 0;
          auto dc = degraded_count_.find(Key(e.node, e.query));
          if (dc != degraded_count_.end() && dc->second > 0) {
            want_flag = 1;
            auto di = degrade_id_.find(Key(e.node, e.query));
            if (di != degrade_id_.end()) want_cause = di->second;
          } else if (it != query_info_.end()) {
            // The simulator's blame scan, item for item: an item's source
            // mid-crash, else an outstanding dropped refresh above the
            // delivered seq. First hit wins.
            for (int32_t item : it->second->items) {
              if (num_sources_ > 0) {
                auto cs = crash_state_.find(
                    Key(e.node,
                        static_cast<int32_t>(item % num_sources_)));
                if (cs != crash_state_.end() &&
                    cs->second.first > e.time) {
                  want_flag = 2;
                  want_cause = cs->second.second;
                  break;
                }
              }
              auto ds = drop_state_.find(Key(e.node, item));
              if (ds != drop_state_.end()) {
                auto del = delivered_seq_.find(Key(e.node, item));
                const int64_t delivered =
                    del == delivered_seq_.end() ? 0 : del->second;
                if (ds->second.first > delivered) {
                  want_flag = 2;
                  want_cause = ds->second.second;
                  break;
                }
              }
            }
          }
          if (e.flag != want_flag || e.cause != want_cause) {
            FailEvent(e, "fault attribution mismatch: recorded flag " +
                             std::to_string(e.flag) + " cause #" +
                             std::to_string(e.cause) +
                             " but replay derives flag " +
                             std::to_string(want_flag) + " cause #" +
                             std::to_string(want_cause));
          }
        }
        ++fidelity_counts_[Key(e.node, e.query)];
        break;
      }
      case TraceEventKind::kPlannerPlan:
        ++planner_events_;
        break;
      case TraceEventKind::kPlannerReplan:
        ++planner_events_;
        ++planner_replans_;
        break;
      case TraceEventKind::kShardBarrier: {
        if (!sharded_) {
          FailEvent(e, "shard barrier in a trace without coord_shards info");
        }
        if (e.b < 2.0) {
          FailEvent(e, "barrier joins " + std::to_string(e.b) +
                           " lanes; a barrier needs at least 2");
        }
        if (e.a < e.time) {
          FailEvent(e, "barrier time " + std::to_string(e.a) +
                           " precedes the event time");
        }
        const TraceEvent* c = Cause(e);
        if (c != nullptr && c->kind != TraceEventKind::kRecomputeEnd &&
            c->kind != TraceEventKind::kAaoSolve) {
          FailEvent(e, std::string("barrier caused by ") + Name(c->kind) +
                           ", expected recompute_end or aao_solve");
        }
        latest_barrier_[Key(e.node, e.item)] = e.id;
        break;
      }
      case TraceEventKind::kFaultDrop: {
        if (!fault_mode_) {
          FailEvent(e, "fault event in a trace without fault_config info");
          break;
        }
        const int klass = static_cast<int>(e.b);
        if (klass == 0 || klass == 1) {
          // A dropped data copy links back to the emission (or
          // retransmission) whose copy was lost.
          const TraceEvent* c = Cause(e);
          if (c != nullptr) {
            const bool emitted =
                c->kind == TraceEventKind::kRefreshEmitted ||
                c->kind == TraceEventKind::kRetransmit;
            if (!emitted || c->node != e.node || c->item != e.item ||
                c->flag != e.flag) {
              FailEvent(e, "dropped data copy does not match its emission");
            }
          }
          drop_state_[Key(e.node, e.item)] = {e.flag, e.id};
          data_drops_.push_back({e.node, e.item, e.flag, e.time, e.id});
        } else if (klass == 2) {
          const TraceEvent* c = CauseOfKind(e, TraceEventKind::kAck);
          if (c != nullptr && (c->node != e.node || c->item != e.item ||
                               c->flag != e.flag)) {
            FailEvent(e, "dropped ack does not match the ack it lost");
          }
        } else if (klass == 3) {
          // Heartbeats are fire-and-forget; the loss has no cause link.
        } else {
          FailEvent(e, "unknown dropped-message class " +
                           std::to_string(e.b));
        }
        break;
      }
      case TraceEventKind::kRetransmit: {
        if (!fault_mode_) {
          FailEvent(e, "fault event in a trace without fault_config info");
          break;
        }
        const TraceEvent* c = Cause(e);
        if (c != nullptr) {
          const bool emitted =
              c->kind == TraceEventKind::kRefreshEmitted ||
              c->kind == TraceEventKind::kRetransmit;
          if (!emitted || c->node != e.node || c->item != e.item ||
              c->flag != e.flag || c->a != e.a) {
            FailEvent(e, "retransmit does not chain back to the previous "
                         "emission of its seq");
          }
        }
        if (e.b < 1.0) FailEvent(e, "retransmit attempt must be >= 1");
        CheckNotCrashed(e);
        resolutions_[Key(e.node, e.item)].push_back(
            {e.id, e.time, e.flag, kResRetransmit});
        break;
      }
      case TraceEventKind::kAck: {
        if (!fault_mode_) {
          FailEvent(e, "fault event in a trace without fault_config info");
          break;
        }
        // No ack without a delivered (or duplicate-suppressed) refresh of
        // exactly this seq.
        const TraceEvent* c = Cause(e);
        if (c != nullptr) {
          if (c->kind != TraceEventKind::kRefreshArrived &&
              c->kind != TraceEventKind::kDupSuppressed) {
            FailEvent(e, std::string("ack caused by ") + Name(c->kind) +
                             ", expected a delivered or suppressed "
                             "refresh");
          } else if (c->node != e.node || c->item != e.item ||
                     c->flag != e.flag) {
            FailEvent(e, "ack does not match the delivery it "
                         "acknowledges");
          }
        }
        break;
      }
      case TraceEventKind::kDupSuppressed: {
        if (!fault_mode_) {
          FailEvent(e, "fault event in a trace without fault_config info");
          break;
        }
        const TraceEvent* c = Cause(e);
        if (c != nullptr) {
          const bool emitted =
              c->kind == TraceEventKind::kRefreshEmitted ||
              c->kind == TraceEventKind::kRetransmit;
          if (!emitted || c->node != e.node || c->item != e.item ||
              c->flag != e.flag || c->a != e.a) {
            FailEvent(e, "suppressed copy does not match its emission");
          }
        }
        const int64_t ikey = Key(e.node, e.item);
        auto di = delivered_seq_.find(ikey);
        if (di == delivered_seq_.end() || e.flag > di->second) {
          FailEvent(e, "suppressed seq " + std::to_string(e.flag) +
                           " above the delivered seq " +
                           std::to_string(di == delivered_seq_.end()
                                              ? 0
                                              : di->second));
        }
        resolutions_[ikey].push_back(
            {e.id, e.time, e.flag, kResDelivered});
        FaultContact(e);
        break;
      }
      case TraceEventKind::kHeartbeat: {
        if (!fault_mode_) {
          FailEvent(e, "fault event in a trace without fault_config info");
          break;
        }
        if (e.source < 0) {
          FailEvent(e, "heartbeat without a source");
          break;
        }
        FaultContact(e);
        break;
      }
      case TraceEventKind::kCrash: {
        if (!fault_mode_) {
          FailEvent(e, "fault event in a trace without fault_config info");
          break;
        }
        if (!(e.a > 0.0)) {
          FailEvent(e, "crash with a non-positive outage duration");
          break;
        }
        auto [it, fresh] = crash_state_.emplace(
            Key(e.node, e.source),
            std::pair<double, uint64_t>{e.time + e.a, e.id});
        if (!fresh) {
          if (it->second.first > e.time) {
            FailEvent(e, "crash overlaps the source's previous crash "
                         "window");
          }
          it->second = {e.time + e.a, e.id};
        }
        crash_windows_[Key(e.node, e.source)].push_back({e.time, e.a});
        break;
      }
      case TraceEventKind::kLeaseExpire: {
        if (!fault_mode_) {
          FailEvent(e, "fault event in a trace without fault_config info");
          break;
        }
        if (num_sources_ > 0 && e.item % num_sources_ != e.source) {
          FailEvent(e, "item " + std::to_string(e.item) +
                           " does not belong to source " +
                           std::to_string(e.source));
        }
        // The recorded last-contact time must be the replay's, the lease
        // must genuinely be past its deadline, and the deadline can only
        // widen the base lease (drift allowance is never negative).
        auto ci = contact_.find(Key(e.node, e.source));
        const double last_contact =
            ci == contact_.end() ? 0.0 : ci->second.first;
        if (e.a != last_contact) {
          FailEvent(e, "recorded last-contact " + std::to_string(e.a) +
                           " differs from the replayed " +
                           std::to_string(last_contact));
        }
        if (!(e.time - e.a > e.b)) {
          FailEvent(e, "lease is not past its deadline (" +
                           std::to_string(e.time - e.a) +
                           " <= " + std::to_string(e.b) + ")");
        }
        if (lease_s_ > 0.0 && e.b < lease_s_) {
          FailEvent(e, "deadline " + std::to_string(e.b) +
                           " below the base lease " +
                           std::to_string(lease_s_));
        }
        auto [xi, xfresh] =
            item_expired_.emplace(Key(e.node, e.item), true);
        if (!xfresh) {
          if (xi->second) {
            FailEvent(e, "lease expired twice without an intervening "
                         "contact");
          }
          xi->second = true;
        }
        for (int32_t q : item_queries_[Key(e.node, e.item)]) {
          const int64_t qkey = Key(e.node, q);
          if (degraded_count_[qkey]++ == 0) {
            pending_degrade_[e.id].insert(qkey);
          }
        }
        resolutions_[Key(e.node, e.item)].push_back(
            {e.id, e.time, 0, kResLease});
        break;
      }
      case TraceEventKind::kDegrade: {
        if (!fault_mode_) {
          FailEvent(e, "fault event in a trace without fault_config info");
          break;
        }
        const TraceEvent* c = CauseOfKind(e, TraceEventKind::kLeaseExpire);
        if (c != nullptr && (c->node != e.node || c->item != e.item)) {
          FailEvent(e, "degrade does not match its lease expiry's "
                       "node/item");
        }
        if (e.flag != 0 && e.flag != 1) {
          FailEvent(e, "degrade flag must be 0 (unboundable) or 1 "
                       "(boundable)");
        }
        const int64_t qkey = Key(e.node, e.query);
        auto pi = pending_degrade_.find(e.cause);
        if (pi == pending_degrade_.end() || pi->second.erase(qkey) == 0) {
          FailEvent(e, "degrade without a matching 0 -> 1 expired-item "
                       "transition for query " + std::to_string(e.query));
        }
        degrade_id_[qkey] = e.id;
        degrade_deltas_[qkey].push_back({e.time, 1});
        break;
      }
      case TraceEventKind::kRecover: {
        if (!fault_mode_) {
          FailEvent(e, "fault event in a trace without fault_config info");
          break;
        }
        const TraceEvent* c = Cause(e);
        if (c != nullptr && c->kind != TraceEventKind::kRefreshArrived &&
            c->kind != TraceEventKind::kDupSuppressed &&
            c->kind != TraceEventKind::kHeartbeat) {
          FailEvent(e, std::string("recover caused by ") + Name(c->kind) +
                           ", expected a coordinator contact");
        }
        const int64_t qkey = Key(e.node, e.query);
        auto pi = pending_recover_.find(e.cause);
        if (pi == pending_recover_.end() || pi->second.erase(qkey) == 0) {
          FailEvent(e, "recover without a matching -> 0 expired-item "
                       "transition for query " + std::to_string(e.query));
        }
        break;
      }
      case TraceEventKind::kLaneStall: {
        if (!fault_mode_) {
          FailEvent(e, "fault event in a trace without fault_config info");
          break;
        }
        if (!(e.a > 0.0)) {
          FailEvent(e, "lane stall with a non-positive duration");
        }
        break;
      }
      case TraceEventKind::kQueryRegister: {
        const int64_t k = Key(e.node, e.query);
        auto qit = query_info_.find(k);
        if (qit == query_info_.end()) {
          FailEvent(e, "registration without a query_info record");
          break;
        }
        if (e.a != qit->second->qab) {
          FailEvent(e, "recorded QAB " + std::to_string(e.a) +
                           " differs from query_info's " +
                           std::to_string(qit->second->qab));
        }
        if (e.flag < 0) FailEvent(e, "negative degrade-attempt count");
        auto ait = active_.find(k);
        if (ait != active_.end() && ait->second) {
          FailEvent(e, "query " + std::to_string(e.query) +
                           " is already registered");
          break;
        }
        active_[k] = true;
        dyn_qab_[k] = qit->second->qab;
        reg_tick_[k] = static_cast<int64_t>(e.time);
        active_order_[e.node].push_back(qit->second);
        for (int32_t item : qit->second->items) {
          dyn_item_queries_[Key(e.node, item)].push_back(e.query);
        }
        partition_dirty_.insert(e.node);
        if (sharded_) {
          // The stamped lane is the query's slot in the engine's
          // incrementally-patched partition; the from-scratch rebuild
          // must land it on the same lane.
          const int32_t lane = DynLane(e.node, e.query);
          if (e.shard != lane) {
            FailEvent(e, "registered on lane " + std::to_string(e.shard) +
                             " but the rebuilt partition assigns lane " +
                             std::to_string(lane));
          }
          if (qit->second->shard != e.shard) {
            FailEvent(e, "query_info lane " +
                             std::to_string(qit->second->shard) +
                             " differs from the registration lane " +
                             std::to_string(e.shard));
          }
        }
        break;
      }
      case TraceEventKind::kQueryModify: {
        const int64_t k = Key(e.node, e.query);
        auto ait = active_.find(k);
        if (ait == active_.end() || !ait->second) {
          FailEvent(e, "modify of a query that is not registered");
          break;
        }
        if (e.b != dyn_qab_[k]) {
          FailEvent(e, "recorded old QAB " + std::to_string(e.b) +
                           " differs from the replayed current QAB " +
                           std::to_string(dyn_qab_[k]));
        }
        dyn_qab_[k] = e.a;
        CheckQueryLane(e);
        break;
      }
      case TraceEventKind::kQueryDeregister: {
        const int64_t k = Key(e.node, e.query);
        auto ait = active_.find(k);
        if (ait == active_.end() || !ait->second) {
          FailEvent(e, "deregister of a query that is not registered");
          break;
        }
        CheckQueryLane(e);  // stamped with the pre-removal lane
        ait->second = false;
        dereg_tick_[k] = static_cast<int64_t>(e.time);
        auto& order = active_order_[e.node];
        auto oit = std::find_if(order.begin(), order.end(),
                                [&e](const TraceQueryInfo* q) {
                                  return q->query == e.query;
                                });
        if (oit != order.end()) {
          for (int32_t item : (*oit)->items) {
            auto& qs = dyn_item_queries_[Key(e.node, item)];
            qs.erase(std::remove(qs.begin(), qs.end(), e.query), qs.end());
          }
          order.erase(oit);
        }
        partition_dirty_.insert(e.node);
        break;
      }
      case TraceEventKind::kAdmissionReject: {
        auto ait = active_.find(Key(e.node, e.query));
        if (ait != active_.end() && ait->second) {
          FailEvent(e, "rejected query id " + std::to_string(e.query) +
                           " is currently registered");
        }
        if (e.flag < 0 || e.flag > 2) {
          FailEvent(e, "unknown rejection reason " +
                           std::to_string(e.flag));
        }
        break;
      }
      case TraceEventKind::kPlanPatch: {
        const TraceEvent* c = Cause(e);
        if (c != nullptr &&
            c->kind != TraceEventKind::kQueryRegister &&
            c->kind != TraceEventKind::kQueryModify &&
            c->kind != TraceEventKind::kQueryDeregister) {
          FailEvent(e, std::string("plan patch caused by ") +
                           Name(c->kind) + ", expected a churn event");
        }
        EnsurePartition(e.node);
        auto& order = active_order_[e.node];
        if (e.a != static_cast<double>(order.size())) {
          FailEvent(e, "records " + std::to_string(e.a) +
                           " live queries but the replay has " +
                           std::to_string(order.size()));
        }
        if (e.b != static_cast<double>(dyn_num_components_[e.node])) {
          FailEvent(e, "records " + std::to_string(e.b) +
                           " EQI components but the rebuild derives " +
                           std::to_string(dyn_num_components_[e.node]));
        }
        // The digest folds every live query's (id, lane, component, QAB)
        // in ascending-id order; recompute it from the from-scratch
        // rebuild and demand bit-equality with the engine's incremental
        // plan state.
        std::vector<const TraceQueryInfo*> sorted(order.begin(),
                                                  order.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const TraceQueryInfo* x, const TraceQueryInfo* y) {
                    return x->query < y->query;
                  });
        uint32_t digest = kFnv1a32Seed;
        for (const TraceQueryInfo* q : sorted) {
          const int64_t k = Key(e.node, q->query);
          digest = HashPlanRecord(digest, q->query, dyn_shard_[k],
                                  dyn_comp_min_[k], dyn_qab_[k]);
        }
        if (e.flag != static_cast<int32_t>(digest)) {
          FailEvent(e, "plan digest " + std::to_string(e.flag) +
                           " differs from the from-scratch rebuild's " +
                           std::to_string(static_cast<int32_t>(digest)));
        }
        break;
      }
      case TraceEventKind::kAlertFire:
      case TraceEventKind::kAlertResolve: {
        // Field-level correctness (value, threshold, consecutive count,
        // window timing) is established by the full series replay in
        // CheckSeries; here only the structural invariants.
        if (!series_mode_) {
          FailEvent(e, "alert event in a trace without series_window_s info");
          break;
        }
        if (e.flag < 0 || static_cast<size_t>(e.flag) >= slo_rule_count_) {
          FailEvent(e, "references SLO rule " + std::to_string(e.flag) +
                           " but the trace declares " +
                           std::to_string(slo_rule_count_) + " rules");
        }
        if (e.cause != 0) (void)Cause(e);  // must exist and precede
        break;
      }
      // --- Crash-recovery bookkeeping (src/recovery/, docs/RECOVERY.md).
      // Neutral in every derivation (metrics, fidelity, lane clocks);
      // their own invariants are the begin/end bracket, the crash's
      // citation of the latest durable snapshot, and the replay record's
      // adjacency to the crash it re-enacted. ---
      case TraceEventKind::kCheckpointBegin: {
        if (e.cause != 0) {
          FailEvent(e, "checkpoint_begin carries a cause");
        }
        if (e.a != e.time) {
          FailEvent(e, "checkpoint tick " + std::to_string(e.a) +
                           " differs from the event time");
        }
        auto [it, fresh] = open_ckpt_begin_.emplace(e.node, e.id);
        if (!fresh) {
          FailEvent(e, "previous checkpoint (begin #" +
                           std::to_string(it->second) + ") never ended");
        }
        break;
      }
      case TraceEventKind::kCheckpointEnd: {
        const TraceEvent* c =
            CauseOfKind(e, TraceEventKind::kCheckpointBegin);
        if (c == nullptr) break;
        // The snapshot write emits nothing, so begin and end are adjacent
        // ids at the same instant — the property the restart leans on to
        // resume numbering at end + 1.
        if (e.id != c->id + 1) {
          FailEvent(e, "checkpoint_end id is not adjacent to its begin #" +
                           std::to_string(c->id));
        }
        if (e.time != c->time) {
          FailEvent(e, "checkpoint_end time differs from its begin's");
        }
        auto it = open_ckpt_begin_.find(e.node);
        if (it == open_ckpt_begin_.end() || it->second != c->id) {
          FailEvent(e, "checkpoint_end does not close the open begin");
        } else {
          open_ckpt_begin_.erase(it);
        }
        last_ckpt_end_[e.node] = e.id;
        break;
      }
      case TraceEventKind::kCoordCrash: {
        auto it = last_ckpt_end_.find(e.node);
        const uint64_t expected =
            it == last_ckpt_end_.end() ? 0 : it->second;
        if (e.cause != expected) {
          FailEvent(e, "coord_crash cites checkpoint_end #" +
                           std::to_string(e.cause) +
                           " but the latest durable snapshot is #" +
                           std::to_string(expected));
        }
        if (e.cause != 0) {
          (void)CauseOfKind(e, TraceEventKind::kCheckpointEnd);
        }
        if (static_cast<double>(e.flag) != e.time) {
          FailEvent(e, "crash tick flag " + std::to_string(e.flag) +
                           " differs from the event time");
        }
        break;
      }
      case TraceEventKind::kRecoveryReplay: {
        const TraceEvent* c = CauseOfKind(e, TraceEventKind::kCoordCrash);
        if (c == nullptr) break;
        // The replay record follows its re-enacted crash immediately: the
        // restart emits both back to back at the crash instant.
        if (e.id != c->id + 1) {
          FailEvent(e, "recovery_replay is not adjacent to its coord_crash "
                       "#" + std::to_string(c->id));
        }
        if (e.time != c->time) {
          FailEvent(e, "recovery_replay time differs from its crash's");
        }
        if (e.a < 0.0) {
          FailEvent(e, "negative replayed-row count");
        }
        // b = the snapshot tick; the replayed span (b, crash tick) has
        // exactly a rows.
        if (e.b + e.a + 1.0 != static_cast<double>(c->flag)) {
          FailEvent(e, "replay span (snapshot tick " + std::to_string(e.b) +
                           " + " + std::to_string(e.a) +
                           " rows) does not reach the crash tick " +
                           std::to_string(c->flag));
        }
        break;
      }
    }
  }

  const TraceFile& trace_;
  const TraceCheckOptions& options_;
  TraceCheckReport* report_;

  std::map<std::string, std::string>::const_iterator origin_it_;
  std::map<std::string, std::string>::const_iterator method_it_;
  std::unordered_map<uint64_t, const TraceEvent*> by_id_;
  std::map<int32_t, double> tol_by_node_;
  std::map<int64_t, const TraceQueryInfo*> query_info_;

  std::map<int32_t, double> last_time_;        // node -> last event time
  std::map<int64_t, double> installed_;        // (node,item) -> width
  std::map<int64_t, double> last_emitted_;     // push-chain edge -> value
  std::map<uint64_t, int> ends_of_start_;      // start id -> #ends
  std::map<int64_t, int64_t> fidelity_counts_; // (node,query) -> samples
  bool sharded_ = false;
  std::map<int64_t, int32_t> item_home_;          // (node,item) -> home lane
  std::map<int64_t, std::set<int32_t>> item_lanes_;
  std::map<int64_t, double> last_time_shard_;     // (node,lane) -> time
  std::map<int64_t, uint64_t> latest_barrier_;    // (node,item) -> barrier id
  int64_t planner_events_ = 0;
  int64_t planner_replans_ = 0;
  int64_t starts_non_aao_ = 0;

  // --- Crash-recovery bracket state (docs/RECOVERY.md) ---
  std::map<int32_t, uint64_t> open_ckpt_begin_;  // node -> unclosed begin id
  std::map<int32_t, uint64_t> last_ckpt_end_;    // node -> latest durable end

  // --- Fault-mode reliability state (docs/ROBUSTNESS.md) ---
  /// A dropped data copy (class 0/1) awaiting resolution.
  struct DataDrop {
    int32_t node;
    int32_t item;
    int64_t seq;
    double time;
    uint64_t id;
  };
  enum ResolutionKind {
    kResRetransmit,  ///< re-sent at seq >= the dropped one
    kResEmitted,     ///< superseded by a strictly newer seq
    kResDelivered,   ///< another copy (or dup) of seq >= it got through
    kResLease,       ///< the item's lease expired — degradation took over
  };
  struct Resolution {
    uint64_t id;
    double time;
    int64_t seq;
    ResolutionKind kind;
  };
  bool fault_mode_ = false;
  int64_t num_sources_ = 0;
  double lease_s_ = 0.0;
  double retx_timeout_s_ = 0.0;
  std::map<int64_t, int64_t> last_emit_seq_;  // (node,item) -> last seq
  std::map<int64_t, int64_t> delivered_seq_;  // (node,item) -> delivered
  /// (node,item) -> latest outstanding drop {seq, drop event id}.
  std::map<int64_t, std::pair<int64_t, uint64_t>> drop_state_;
  /// (node,source) -> {end of latest crash window, crash event id}.
  std::map<int64_t, std::pair<double, uint64_t>> crash_state_;
  /// (node,source) -> every crash window as (start, duration).
  std::map<int64_t, std::vector<std::pair<double, double>>> crash_windows_;
  /// (node,source) -> {time, event id} of the last coordinator contact.
  std::map<int64_t, std::pair<double, uint64_t>> contact_;
  std::map<int64_t, bool> item_expired_;      // (node,item) -> lease lapsed
  std::map<int64_t, int64_t> degraded_count_; // (node,query) -> expired items
  std::map<int64_t, uint64_t> degrade_id_;    // (node,query) -> degrade event
  /// lease_expire id -> (node,query) keys whose degrade event is still owed.
  std::map<uint64_t, std::set<int64_t>> pending_degrade_;
  /// contact event id -> (node,query) keys whose recover event is still owed.
  std::map<uint64_t, std::set<int64_t>> pending_recover_;
  std::map<int64_t, std::vector<int32_t>> item_queries_;  // (node,item)
  std::map<int64_t, std::set<int32_t>> source_items_;     // (node,source)
  /// (node,query) -> (time, state 1=degraded/0=recovered) transitions, in
  /// event order. Exposed through DegradeDeltas for the
  /// degraded_query_seconds re-derivation.
  std::map<int64_t, std::vector<std::pair<double, int>>> degrade_deltas_;
  std::vector<DataDrop> data_drops_;
  std::map<int64_t, std::vector<Resolution>> resolutions_;  // (node,item)

  // --- Service-churn replay state (docs/SERVICE.md) ---
  bool churn_mode_ = false;
  bool series_mode_ = false;   // info series_window_s present
  size_t slo_rule_count_ = 0;  // parsed from info slo_rules
  std::string slo_rules_error_;
  int coord_shards_count_ = 1;
  bool policy_component_ = true;
  std::set<int64_t> churn_reg_keys_;   // (node,query) registered mid-run
  std::map<int64_t, bool> active_;     // (node,query) -> registered now
  std::map<int64_t, double> dyn_qab_;  // (node,query) -> current QAB
  std::map<int64_t, int64_t> reg_tick_;    // (node,query) -> registered at
  std::map<int64_t, int64_t> dereg_tick_;  // (node,query) -> departed at
  /// node -> active query_info records in registration order (the
  /// engine's slot order with dead slots compacted out).
  std::map<int32_t, std::vector<const TraceQueryInfo*>> active_order_;
  /// (node,item) -> active query ids referencing it, registration order;
  /// the front query's lane is the item's home lane.
  std::map<int64_t, std::vector<int32_t>> dyn_item_queries_;
  std::set<int32_t> partition_dirty_;  // nodes needing a partition rebuild
  std::map<int64_t, int32_t> dyn_shard_;     // (node,query) -> lane
  std::map<int64_t, int32_t> dyn_comp_min_;  // (node,query) -> EQI label
  std::map<int32_t, int64_t> dyn_num_components_;  // node -> #components
};

bool InScope(const TraceRunSummary& s, const TraceEvent& e) {
  return s.node == -1 || e.node == s.node;
}

/// Re-derive the producing run's SimMetrics for one summary's scope,
/// reproducing the simulator's arithmetic (and its query iteration order,
/// fixed by the query_info emission order) operation for operation so the
/// comparison can demand bit-exact equality.
TraceDerivedStats Derive(const TraceFile& trace, const TraceRunSummary& s,
                         const Checker& checker) {
  TraceDerivedStats d;
  for (const TraceEvent& e : trace.events) {
    if (!InScope(s, e)) continue;
    AccumulateDerivedStats(e, &d);
  }
  if (s.ticks >= 2 && s.queries > 0) {
    double loss_sum = 0.0;
    for (const TraceQueryInfo& q : trace.queries) {
      if (s.node != -1 && q.node != s.node) continue;
      // k stride-sized increments of an integer-valued double are exact,
      // so the product reproduces the simulator's accumulated sum.
      const double violated_time =
          static_cast<double>(checker.FidelityViolations(q.node, q.query) *
                              s.fidelity_stride);
      if (checker.churn_mode()) {
        // Churn runs denominate each query over its own registration
        // interval, exactly as the engine does.
        const int64_t first =
            std::max<int64_t>(checker.RegTick(q.node, q.query), 1);
        const int64_t last = std::min<int64_t>(
            checker.DeregTick(q.node, q.query) - 1, s.ticks - 1);
        const int64_t denom = last - first + 1;
        if (denom <= 0) continue;
        loss_sum += 100.0 * violated_time / static_cast<double>(denom);
      } else {
        loss_sum +=
            100.0 * violated_time / static_cast<double>(s.ticks - 1);
      }
    }
    d.mean_fidelity_loss_pct = loss_sum / static_cast<double>(s.queries);
  }
  // Fault mode: replay each query's degrade/recover transitions against
  // the fidelity sample grid. The simulator charges fidelity_stride
  // seconds per sample tick a query spends degraded; leases are scanned
  // before the fidelity pass each tick, so the state at sample tick t is
  // the last transition with time <= t.
  if (s.ticks >= 2 && s.fidelity_stride > 0) {
    for (const TraceQueryInfo& q : trace.queries) {
      if (s.node != -1 && q.node != s.node) continue;
      const auto* deltas = checker.DegradeDeltas(q.node, q.query);
      if (deltas == nullptr) continue;
      size_t di = 0;
      int state = 0;
      int64_t degraded_ticks = 0;
      for (int64_t t = s.fidelity_stride; t <= s.ticks - 1;
           t += s.fidelity_stride) {
        const double tt = static_cast<double>(t);
        while (di < deltas->size() && (*deltas)[di].first <= tt) {
          state = (*deltas)[di].second;
          ++di;
        }
        if (state != 0) ++degraded_ticks;
      }
      d.degraded_query_seconds +=
          static_cast<double>(degraded_ticks * s.fidelity_stride);
    }
  }
  return d;
}

void DiffSummary(const TraceRunSummary& s, const TraceDerivedStats& d,
                 TraceCheckReport* report,
                 const TraceCheckOptions& options) {
  auto fail = [&](const std::string& what) {
    ++report->failure_count;
    if (report->failures.size() < options.max_failures) {
      report->failures.push_back("run_summary (node " +
                                 std::to_string(s.node) + "): " + what);
    }
  };
  const std::vector<SummaryCounter> replayed = SummaryCounters(d);
  const std::vector<SummaryCounter> recorded = SummaryCounters(s);
  for (size_t i = 0; i < recorded.size(); ++i) {
    if (replayed[i].Differs(recorded[i])) {
      fail(std::string(recorded[i].key) + " replayed as " +
           replayed[i].Text() + " but recorded as " + recorded[i].Text());
    }
  }
}

/// Cross-check the derived totals against a telemetry run report from the
/// same run (counters are summed over nodes by construction; the fidelity
/// gauge is last-write-wins, so it is only compared for single-summary
/// traces).
void DiffRunReport(const TraceFile& trace,
                   const std::vector<TraceDerivedStats>& derived,
                   const RunReport& rr, TraceCheckReport* report,
                   const TraceCheckOptions& options) {
  auto origin_it = trace.info.find("origin");
  const bool relay =
      origin_it != trace.info.end() && origin_it->second == "relay";
  const std::string prefix = relay ? "net.relay." : "sim.coordinator.";

  const TraceDerivedStats total = DeriveTotalStats(trace);
  auto fail = [&](const std::string& what) {
    ++report->failure_count;
    if (report->failures.size() < options.max_failures) {
      report->failures.push_back("run report: " + what);
    }
  };
  auto diff_counter = [&](const std::string& metric, int64_t derived_value) {
    const RunReport::Entry* e = rr.Find(metric);
    if (e == nullptr) {
      fail("missing counter " + metric);
      return;
    }
    if (e->counter_value != derived_value) {
      fail(metric + " replayed as " + std::to_string(derived_value) +
           " but reported as " + std::to_string(e->counter_value));
    }
  };
  diff_counter(prefix + "refreshes", total.refreshes);
  diff_counter(prefix + "recomputations", total.recomputations);
  diff_counter(prefix + "dab_change_messages", total.dab_change_messages);
  diff_counter(prefix + "solver_failures", total.solver_failures);
  if (!relay) {
    diff_counter(prefix + "user_notifications", total.user_notifications);
  }

  // Fault-mode runs register the sim.fault.* counters; their values must
  // mirror the replayed totals exactly (conservation, satellite (f) of
  // docs/ROBUSTNESS.md). degraded_query_seconds is summed over the
  // per-summary derivations, since it needs each summary's sample grid.
  if (!relay && trace.info.find("fault_config") != trace.info.end()) {
    diff_counter("sim.fault.drops", total.fault_drops);
    diff_counter("sim.fault.retransmits", total.retransmits);
    diff_counter("sim.fault.duplicates_suppressed",
                 total.duplicates_suppressed);
    diff_counter("sim.fault.lease_expiries", total.lease_expiries);
    double degraded = 0.0;
    for (const TraceDerivedStats& d : derived) {
      degraded += d.degraded_query_seconds;
    }
    diff_counter("sim.fault.degraded_query_seconds",
                 static_cast<int64_t>(degraded));
  }

  if (trace.summaries.size() == 1 && derived.size() == 1) {
    const char* gauge_name = relay ? "net.relay.fidelity.mean_loss_pct"
                                   : "sim.fidelity.mean_loss_pct";
    const RunReport::Entry* g = rr.Find(gauge_name);
    if (g == nullptr) {
      fail(std::string("missing gauge ") + gauge_name);
    } else if (g->gauge_value != derived[0].mean_fidelity_loss_pct) {
      fail(std::string(gauge_name) + " replayed as " +
           std::to_string(derived[0].mean_fidelity_loss_pct) +
           " but reported as " + std::to_string(g->gauge_value));
    }
  }
}

/// Alerting mode (header mode (f)): rebuild the windowed series from the
/// events alone and demand that every recorded alert event — and, when
/// provided, every row of the series file written by the same run —
/// matches the re-derivation exactly.
void CheckSeries(const TraceFile& trace, const TraceCheckOptions& options,
                 const Checker& checker, TraceCheckReport* report) {
  auto fail = [&](const std::string& what) {
    ++report->failure_count;
    if (report->failures.size() < options.max_failures) {
      report->failures.push_back("series: " + what);
    }
  };
  Result<SeriesFile> folded = FoldTraceSeries(trace);
  if (!folded.ok()) {
    // The Checker already reported a malformed slo_rules key.
    if (folded.status().message() != checker.slo_rules_error()) {
      fail(folded.status().message());
    }
    return;
  }
  const SeriesFile& derived = *folded;
  const TraceRunSummary& s = trace.summaries[0];

  // Every recorded alert event must match the replay's transition list
  // element-wise — same order, same rule, same window end, same observed
  // value/threshold/consecutive count, same cause id.
  std::vector<const TraceEvent*> recorded;
  for (const TraceEvent& e : trace.events) {
    if (e.kind == TraceEventKind::kAlertFire ||
        e.kind == TraceEventKind::kAlertResolve) {
      recorded.push_back(&e);
    }
  }
  if (recorded.size() != derived.alerts.size()) {
    fail("trace records " + std::to_string(recorded.size()) +
         " alert events but the replay derives " +
         std::to_string(derived.alerts.size()));
  }
  const size_t n_alerts = std::min(recorded.size(), derived.alerts.size());
  for (size_t i = 0; i < n_alerts; ++i) {
    const TraceEvent& e = *recorded[i];
    const SloAlert& a = derived.alerts[i];
    const bool fire = e.kind == TraceEventKind::kAlertFire;
    if (fire != a.fire || e.time != a.time || e.flag != a.rule ||
        e.a != a.value || e.b != a.threshold ||
        e.c != static_cast<double>(a.consecutive) || e.cause != a.cause) {
      fail("alert event #" + std::to_string(e.id) + " (" + Name(e.kind) +
           " rule " + std::to_string(e.flag) + " at t=" + JsonNumber(e.time) +
           ", value " + JsonNumber(e.a) + ", cause #" +
           std::to_string(e.cause) + ") differs from the replayed " +
           (a.fire ? "fire" : "resolve") + " of rule " +
           std::to_string(a.rule) + " at t=" + JsonNumber(a.time) +
           " (value " + JsonNumber(a.value) + ", cause #" +
           std::to_string(a.cause) + ")");
    }
  }

  // Conservation: the per-window deltas must sum exactly to the run
  // totals the summary records.
  const SeriesTotals& t = derived.totals;
  auto conserve = [&](const char* what, int64_t sum, int64_t total) {
    if (sum != total) {
      fail(std::string(what) + " window deltas sum to " +
           std::to_string(sum) + " but the run summary records " +
           std::to_string(total));
    }
  };
  conserve("refreshes", t.refreshes, s.refreshes);
  conserve("recomputations", t.recomputations, s.recomputations);
  conserve("dab_change_messages", t.dab_changes, s.dab_change_messages);
  conserve("user_notifications", t.notifications, s.user_notifications);
  conserve("solver_failures", t.solver_failures, s.solver_failures);
  conserve("fault_drops", t.fault_drops, s.fault_drops);
  conserve("retransmits", t.retransmits, s.retransmits);
  conserve("duplicates_suppressed", t.dups_suppressed,
           s.duplicates_suppressed);
  conserve("lease_expiries", t.lease_expiries, s.lease_expiries);

  if (options.series == nullptr) return;
  const SeriesFile& file = *options.series;
  if (file.rules != derived.rules) {
    fail("series file SLO rules differ from the trace's slo_rules info");
  }
  if (file.windows.size() != derived.windows.size()) {
    fail("series file has " + std::to_string(file.windows.size()) +
         " windows but the replay derives " +
         std::to_string(derived.windows.size()));
  }
  const size_t n_windows = std::min(file.windows.size(),
                                    derived.windows.size());
  for (size_t i = 0; i < n_windows; ++i) {
    if (file.windows[i] == derived.windows[i]) continue;
    // Name the first differing field for the diagnostic.
    std::string detail = "bounds";
    for (const std::string& name : SeriesMetricNames()) {
      if (SeriesMetricValue(file.windows[i], name) !=
          SeriesMetricValue(derived.windows[i], name)) {
        detail = name + " " +
                 JsonNumber(SeriesMetricValue(file.windows[i], name)) +
                 " vs replayed " +
                 JsonNumber(SeriesMetricValue(derived.windows[i], name));
        break;
      }
    }
    fail("window #" + std::to_string(i) +
         " differs from the replay: " + detail);
  }
  if (file.dims != derived.dims) {
    fail("series file breakdown rows differ from the replay");
  }
  if (file.alerts != derived.alerts) {
    fail("series file alert rows differ from the replay");
  }
  if (!file.has_totals) {
    fail("series file has no series_summary record (truncated file?)");
  } else if (file.totals != derived.totals) {
    fail("series file totals differ from the replay");
  }
  // Registry sample rows: the sim-domain counters mirror catalog metrics
  // one-to-one (the same names name both the instrument and the window
  // field), so their per-window deltas are checkable; other instruments
  // (planner/solver internals, wall-clock histograms) are not re-derivable
  // from events and pass through unverified.
  const std::vector<std::string>& catalog = SeriesMetricNames();
  for (const SeriesSample& sample : file.samples) {
    if (sample.kind != "counter") continue;
    if (std::find(catalog.begin(), catalog.end(), sample.name) ==
        catalog.end()) {
      continue;
    }
    if (sample.index < 0 ||
        static_cast<size_t>(sample.index) >= derived.windows.size()) {
      fail("sample row for " + sample.name + " names window #" +
           std::to_string(sample.index) + ", out of range");
      continue;
    }
    const double expected = SeriesMetricValue(
        derived.windows[static_cast<size_t>(sample.index)], sample.name);
    if (sample.value != expected) {
      fail("sample row " + sample.name + " (window #" +
           std::to_string(sample.index) + ") records delta " +
           JsonNumber(sample.value) + " but the replay derives " +
           JsonNumber(expected));
    }
  }
}

std::vector<TraceQueryCost> Attribute(const TraceFile& trace, double mu,
                                      const Checker& /*checker*/) {
  std::vector<TraceQueryCost> out;
  out.reserve(trace.queries.size());
  auto by_id = [&trace] {
    std::unordered_map<uint64_t, const TraceEvent*> m;
    m.reserve(trace.events.size());
    for (const TraceEvent& e : trace.events) m.emplace(e.id, &e);
    return m;
  }();
  // Root-cause chain of one recomputation: recompute_start -> violation
  // (dual-DAB) -> arrival -> item, or recompute_start -> arrival -> item
  // (single-DAB). AAO-caused recomputations have no root item.
  auto root_item = [&by_id](const TraceEvent& start) -> int32_t {
    auto it = by_id.find(start.cause);
    if (it == by_id.end()) return -1;
    const TraceEvent* c = it->second;
    if (c->kind == TraceEventKind::kSecondaryViolation) {
      auto it2 = by_id.find(c->cause);
      if (it2 == by_id.end()) return c->item;
      c = it2->second;
    }
    return c->kind == TraceEventKind::kRefreshArrived ? c->item : -1;
  };

  for (const TraceQueryInfo& qinfo : trace.queries) {
    TraceQueryCost qc;
    qc.query = qinfo.query;
    qc.node = qinfo.node;
    const std::set<int32_t> items(qinfo.items.begin(), qinfo.items.end());
    std::map<int32_t, int64_t> roots;
    for (const TraceEvent& e : trace.events) {
      if (e.kind == TraceEventKind::kRefreshArrived &&
          e.node == qinfo.node && items.count(e.item) != 0) {
        ++qc.refreshes;
      } else if (e.kind == TraceEventKind::kRecomputeStart &&
                 e.node == qinfo.node && e.query == qinfo.query) {
        ++qc.recomputations;
        const int32_t item = root_item(e);
        if (item >= 0) ++roots[item];
      }
    }
    qc.cost = static_cast<double>(qc.refreshes) +
              mu * static_cast<double>(qc.recomputations);
    qc.root_items.assign(roots.begin(), roots.end());
    std::sort(qc.root_items.begin(), qc.root_items.end(),
              [](const auto& x, const auto& y) {
                return x.second != y.second ? x.second > y.second
                                            : x.first < y.first;
              });
    out.push_back(std::move(qc));
  }
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

std::string TraceCheckReport::ToText(const TraceFile& trace) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "trace-check: %s  (%" PRId64 " events, %zu queries, %zu "
                "run summaries, %" PRId64 " invariant failures)\n",
                ok() ? "OK" : "FAILED", events, trace.queries.size(),
                trace.summaries.size(), failure_count);
  out += buf;
  for (size_t i = 0; i < derived.size() && i < trace.summaries.size();
       ++i) {
    const TraceDerivedStats& d = derived[i];
    std::snprintf(buf, sizeof(buf),
                  "node %d: refreshes=%" PRId64 " recomputations=%" PRId64
                  " dab_changes=%" PRId64 " notifications=%" PRId64
                  " solver_failures=%" PRId64
                  " fidelity_loss=%.4f%% cost=%.0f\n",
                  trace.summaries[i].node, d.refreshes, d.recomputations,
                  d.dab_change_messages, d.user_notifications,
                  d.solver_failures, d.mean_fidelity_loss_pct,
                  static_cast<double>(d.refreshes) +
                      mu * static_cast<double>(d.recomputations));
    out += buf;
    // Fault-mode line, only when anything fault-related happened, so
    // fault-free renderings stay byte-identical.
    if (d.fault_drops != 0 || d.retransmits != 0 ||
        d.duplicates_suppressed != 0 || d.lease_expiries != 0 ||
        d.degraded_query_seconds != 0.0) {
      std::snprintf(buf, sizeof(buf),
                    "node %d faults: drops=%" PRId64 " retransmits=%" PRId64
                    " dups_suppressed=%" PRId64 " lease_expiries=%" PRId64
                    " degraded_query_seconds=%.0f\n",
                    trace.summaries[i].node, d.fault_drops, d.retransmits,
                    d.duplicates_suppressed, d.lease_expiries,
                    d.degraded_query_seconds);
      out += buf;
    }
  }
  if (!queries.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "per-query cost attribution (mu=%g):\n", mu);
    out += buf;
    for (const TraceQueryCost& q : queries) {
      std::snprintf(buf, sizeof(buf),
                    "  query %-4d node %-3d refreshes=%-6" PRId64
                    " recomputations=%-5" PRId64 " cost=%-8.0f root items:",
                    q.query, q.node, q.refreshes, q.recomputations,
                    q.cost);
      out += buf;
      size_t shown = 0;
      for (const auto& [item, count] : q.root_items) {
        if (++shown > 3) break;
        std::snprintf(buf, sizeof(buf), " %d(x%" PRId64 ")", item, count);
        out += buf;
      }
      if (q.root_items.empty()) out += " -";
      out += "\n";
    }
  }
  for (const std::string& f : failures) {
    out += "FAIL: " + f + "\n";
  }
  if (failure_count > static_cast<int64_t>(failures.size())) {
    std::snprintf(buf, sizeof(buf), "... and %" PRId64 " more failures\n",
                  failure_count - static_cast<int64_t>(failures.size()));
    out += buf;
  }
  return out;
}

Result<TraceCheckReport> CheckTrace(const TraceFile& trace,
                                    const TraceCheckOptions& options) {
  if (trace.summaries.empty()) {
    return Status::InvalidArgument(
        "trace has no run_summary records (truncated run?)");
  }
  TraceCheckReport report;
  report.events = static_cast<int64_t>(trace.events.size());
  report.mu = ResolveTraceMu(trace, options.mu);

  Checker checker(trace, options, &report);
  checker.Run();

  for (const TraceRunSummary& s : trace.summaries) {
    TraceDerivedStats d = Derive(trace, s, checker);
    // The summary's query count must cover exactly the query_info records
    // in its scope, or the fidelity re-derivation is meaningless.
    int64_t in_scope = 0;
    for (const TraceQueryInfo& q : trace.queries) {
      if (s.node == -1 || q.node == s.node) ++in_scope;
    }
    if (in_scope != s.queries) {
      ++report.failure_count;
      if (report.failures.size() < options.max_failures) {
        report.failures.push_back(
            "run_summary (node " + std::to_string(s.node) + "): claims " +
            std::to_string(s.queries) + " queries but the trace has " +
            std::to_string(in_scope) + " query_info records in scope");
      }
    }
    DiffSummary(s, d, &report, options);
    report.derived.push_back(d);
  }
  if (options.report != nullptr) {
    DiffRunReport(trace, report.derived, *options.report, &report, options);
  }
  if (trace.info.find("series_window_s") != trace.info.end()) {
    CheckSeries(trace, options, checker, &report);
  } else if (options.series != nullptr) {
    ++report.failure_count;
    if (report.failures.size() < options.max_failures) {
      report.failures.push_back(
          "series: a series file was provided but the trace carries no "
          "series_window_s info key");
    }
  }
  report.queries = Attribute(trace, report.mu, checker);
  return report;
}

}  // namespace polydab::obs
