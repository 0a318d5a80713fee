#ifndef POLYDAB_SIM_SIMULATION_H_
#define POLYDAB_SIM_SIMULATION_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/planner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/run_counters.h"
#include "sim/delay_model.h"
#include "sim/fault_model.h"
#include "workload/tick_source.h"
#include "workload/trace.h"

/// \file simulation.h
/// Event-driven source/coordinator simulation reproducing the paper's
/// evaluation methodology (§V-A):
///
/// * Sources replay per-item traces (1 tick = 1 s) and push a refresh when
///   an item drifts beyond its installed primary DAB since the last push.
/// * The coordinator maintains a view of item values; each arriving
///   refresh is checked against every affected query's *secondary* DAB
///   range. A violation triggers a DAB recomputation for that query
///   (PlanQuery, warm-started), updates the per-item minimum primary DABs
///   (the EQI merge of §IV) and sends DAB-change messages to sources.
/// * Message and computation delays are heavy-tailed Pareto (delay_model.h).
/// * Metrics: refreshes, recomputations, DAB-change messages, fidelity
///   loss (time-fraction a query's QAB is violated, sampled per tick), and
///   total cost = refreshes + mu * recomputations — the paper's four
///   metrics.
///
/// Single-DAB methods (Optimal Refresh, WSDAB) fall out naturally: their
/// secondary equals their primary, so essentially every refresh that
/// escapes a query's own bound forces a recomputation — the §I-B behaviour
/// the Dual-DAB approach is designed to avoid.

namespace polydab::obs {
class SeriesRecorder;  // obs/timeseries.h; kept out of this header's deps
}

namespace polydab::recovery {
struct RecoveryConfig;  // recovery/recovery.h; kept out of this header's deps
}

namespace polydab::sim {

/// How queries are partitioned across coordinator lanes when
/// SimConfig::coord_shards > 1.
enum class ShardPolicy : uint8_t {
  /// EQI-aware (default): queries connected through shared items land on
  /// the same lane (core::QueryIndex::ShardByComponent), so every
  /// per-item min-DAB merge is lane-local and the only cross-shard
  /// synchronization left is the periodic AAO joint solve.
  kEqiComponents,
  /// Mixed hash of the query id (core::QueryIndex::ShardByQueryId):
  /// balanced regardless of item-sharing structure, but queries sharing
  /// an item may land on different lanes, so their EQI merges go through
  /// explicit shard-barrier synchronization (traced as kShardBarrier).
  kQueryHash,
};

/// Serialization name, e.g. "eqi_components".
const char* Name(ShardPolicy policy);

/// How the engine maintains its plan state (EQI components, shard
/// assignment, per-item min-DAB merges) across runtime query churn
/// (docs/SERVICE.md). Both modes produce bit-identical observable state —
/// the churn differential test and the tracecheck plan_patch invariant
/// enforce it — so kRebuild exists as the checked fallback oracle, not as
/// a different behaviour.
enum class PlanMaintenance : uint8_t {
  kIncremental,  ///< merge/split components in place at each churn event
  kRebuild,      ///< re-derive everything from scratch at each churn event
};

/// Serialization name: "incremental" / "rebuild".
const char* Name(PlanMaintenance maintenance);

/// \brief Engine-side operations the service layer drives at runtime
/// (docs/SERVICE.md). Implemented by the simulation; handed to
/// ServiceHooks::OnTick once per tick. All state mutations — plan
/// installation, EQI merge refresh, filter re-shipping, lane-time
/// charging, trace emission — happen inside the engine so the event
/// stream stays consistent regardless of who drives the churn.
class ServiceOps {
 public:
  virtual ~ServiceOps() = default;

  /// The coordinator's current item view / the planner's rate estimates.
  virtual const Vector& View() const = 0;
  virtual const Vector& Rates() const = 0;

  /// Plan a candidate query against the current view without registering
  /// it — the admission controller's costing probe. Does not mutate
  /// engine state (the planner may emit planner_plan trace events).
  virtual Result<core::QueryPlan> TrialPlan(const PolynomialQuery& query) = 0;

  /// Register \p query with the given (already solved) plan. Emits
  /// query_register + plan_patch, refreshes the EQI merge, ships changed
  /// filters, and charges the query's lane one recompute per plan part.
  /// \p admission_estimate and \p degrade_attempts are recorded on the
  /// trace event for offline audit.
  virtual Status Register(const PolynomialQuery& query, core::QueryPlan plan,
                          double admission_estimate,
                          int degrade_attempts) = 0;

  /// Change a live query's QAB, installing the re-solved \p plan.
  virtual Status Modify(int query_id, double new_qab,
                        core::QueryPlan plan) = 0;

  /// Remove a live query; its items' merged filters widen (or retire)
  /// accordingly.
  virtual Status Deregister(int query_id) = 0;

  /// Record a rejected registration (admission_reject trace event).
  /// \p reason: 0 = over recompute budget, 1 = planning failed,
  /// 2 = invalid query.
  virtual void AdmissionReject(int query_id, double estimate, double budget,
                               int reason) = 0;
};

/// \brief Runtime churn driver (svc::QueryService, or a test double).
/// Called once per simulated tick, after message delivery and before
/// source pushes, with the engine's logical clock.
class ServiceHooks {
 public:
  virtual ~ServiceHooks() = default;
  virtual Status OnTick(int tick, double now, ServiceOps& ops) = 0;

  /// Crash-recovery checkpoint support (src/recovery/,
  /// docs/RECOVERY.md): serialize the driver's full mutable state into an
  /// opaque string the checkpoint embeds, and reinstate it on restart.
  /// The base implementations are for stateless drivers; a stateful
  /// driver (svc::QueryService) must round-trip bit-exactly or the
  /// restarted run diverges from the oracle.
  virtual std::string SnapshotState() const { return std::string(); }
  virtual Status RestoreState(const std::string& state) {
    if (!state.empty()) {
      return Status::InvalidArgument(
          "service driver has no state restore but checkpoint carries "
          "service state");
    }
    return Status::OK();
  }
};

struct SimConfig {
  core::PlannerConfig planner;
  DelayConfig delays;
  /// Fault injection + reliability protocol (sim/fault_model.h,
  /// docs/ROBUSTNESS.md). The default (inactive) config takes no fault
  /// branch anywhere and produces traces and metrics bit-identical to a
  /// build without the fault layer. When active, refreshes carry sequence
  /// numbers, the coordinator acks them, unacked refreshes retransmit
  /// with exponential backoff, sources heartbeat, and per-item lease
  /// expiry degrades the affected queries instead of silently serving
  /// stale values as in-bound. All fault randomness comes from a
  /// dedicated RNG stream forked from `seed`, so chaos runs replay
  /// bit-identically and never perturb the delay/workload draws.
  FaultConfig fault;
  int num_sources = 20;
  uint64_t seed = 1;
  /// Figure 7's AAO-T mode: when > 0 (seconds) and the planner method is
  /// kDualDab, all queries' DABs are recomputed jointly (SolveAao) every
  /// aao_period_s; between periods, per-query secondary violations are
  /// repaired with individual Dual-DAB solves. Each query refreshed by a
  /// joint solve counts as one recomputation. 0 = off; otherwise finite
  /// and at most INT_MAX (Validate()).
  double aao_period_s = 0.0;
  /// Coordinator lanes. 1 (the default) is the serial coordinator of
  /// §V-B.1 — one busy-until clock, every recomputation blocks every
  /// refresh — and is bit-identical to the historical implementation
  /// (enforced by tests/coord_shard_diff_test.cc). With N > 1 the queries
  /// are partitioned across N lanes per `shard_policy`; each lane has its
  /// own busy-until clock and queue, a refresh waits only for its item's
  /// home lane, and cross-lane work synchronizes through shard barriers
  /// (see DESIGN.md, "Sharded coordinator").
  int coord_shards = 1;
  ShardPolicy shard_policy = ShardPolicy::kEqiComponents;
  /// Worker threads of the refresh service's solve pipeline (src/rt/,
  /// docs/CONCURRENCY.md). Every service groups its stale parts by
  /// bitwise-equal solve inputs, solves each distinct group once, then
  /// installs the results in exact oracle order, copying each group's
  /// result to its other parts. 0 (the default) starts no pool: the
  /// event loop solves every group inline. With N >= 1 the run starts an
  /// rt::BatchPool of N `std::jthread` workers; a service with g > 1
  /// groups wakes min(N, g - 1) of them, and they and the event loop
  /// claim groups in oracle order (rt/batch_pool.h), the event loop
  /// waiting on a group's done flag just before its install.
  /// Virtual time, RNG draws, trace emission and all protocol decisions
  /// stay on the event-loop thread, so metrics, registry totals and the
  /// canonicalized trace (obs/trace_canon.h) are byte-identical to the
  /// threads = 0 run under the same seed — enforced by
  /// tests/threaded_diff_test.cc. Every event is emitted on the event
  /// loop in serial order, so a `series` recorder folds the same stream
  /// as under threads = 0. Excluded from Describe() so threaded and
  /// oracle run reports stay comparable; the trace instead carries an
  /// `rt_threads` info key, stripped by canonicalization.
  int threads = 0;
  /// Fault hook for the worker-abort path (tools/partial_metrics.cmake):
  /// the k-th pool worker woken over the run (1-based, in wake order; at
  /// most one per worker per service, none for a service with one group;
  /// the groups the event loop claims and the copies installed for
  /// duplicate parts are not wake-ups) claims nothing and fails with an
  /// internal error, which latches the pool failure and aborts the run
  /// through the normal status=failed partial metrics machinery. 0 (the
  /// default) = never. Must be >= 0, and 0 when threads = 0 (no worker is
  /// ever woken).
  int64_t rt_fail_at = 0;
  /// Capacity, in entries, of the solve engine's exact-match LRU memo;
  /// 0 (the default) disables it. A hit replays a memoized solution and
  /// its gp.solver.* instrument stats, bit-identical to re-running the
  /// deterministic solver on the same input bits. Bitwise-equal parts
  /// within one refresh service are already solved once by the pipeline
  /// (see `threads`), so the memo serves only repeats across services,
  /// at every thread count. Excluded from Describe() like `threads`.
  int solve_cache = 0;
  /// Evaluate fidelity every N ticks (1 = every second); >= 1.
  int fidelity_stride = 1;
  /// Relative slack when testing secondary-range violations, guarding
  /// against pure round-off retriggering.
  double violation_tol = 1e-9;
  /// Validate every plan against core/validator.h after each
  /// (re)computation; a failed validation aborts the run with an error.
  /// Used by tests and debugging, off by default for speed.
  bool paranoid_validation = false;
  /// Optional telemetry sink (docs/OBSERVABILITY.md). When set, the run
  /// records the `sim.*` instruments — coordinator counters mirroring
  /// SimMetrics exactly, per-tick refresh/recompute-rate histograms,
  /// message-delay and queue-wait histograms, recompute-cause counters —
  /// and the registry is propagated into the planner and GP solver
  /// (`core.planner.*`, `gp.solver.*`). Null (the default) keeps every
  /// instrumented path behind a single branch with no other overhead.
  /// Not owned; must outlive the run.
  obs::MetricRegistry* registry = nullptr;
  /// Optional causal event trace (obs/trace.h). When set, the run records
  /// every protocol event — refresh emitted/arrived, secondary violation,
  /// recompute start/end, DAB-change sent/installed, AAO solves, user
  /// notifications, per-query fidelity violations — with cause links, a
  /// query_info record per query, and a trailing run summary mirroring
  /// the returned SimMetrics, so tools/polydab_tracecheck.cc can replay
  /// and verify the run offline. The sink is propagated into the planner.
  /// Null (the default) keeps every emission site behind one branch.
  /// Not owned; must outlive the run.
  obs::TraceSink* trace = nullptr;
  /// Node id stamped on traced events; overlay drivers that run one
  /// simulation per coordinator into a shared sink (net/dissemination.cc)
  /// set it so the streams stay separable. -1 = single coordinator.
  int32_t trace_node = -1;
  /// Optional windowed time-series recorder (obs/timeseries.h,
  /// docs/OBSERVABILITY.md "Time series, SLOs and monitoring"). When set,
  /// the run installs it as the trace sink's observer, feeds it fidelity
  /// sample counts, drives window closes at tick boundaries (so SLO
  /// alert events land before any later-timed event), and stamps the
  /// series metadata (`series_window_s`, `slo_rules`, `series_breakdown`)
  /// into the trace info so the checker's alerting mode can replay the
  /// series exactly. Requires `trace` (alerts are emitted into it); the
  /// modes it rejects are listed in Validate(). Null (the default) leaves
  /// the run byte-identical to a series-free one. Not owned; must outlive
  /// the run.
  obs::SeriesRecorder* series = nullptr;
  /// Optional runtime churn driver (docs/SERVICE.md): called once per
  /// tick to register/modify/deregister queries through ServiceOps. Null
  /// (the default) — and equally a driver that never issues an op —
  /// leaves the run byte-identical (trace, metrics, registry) to the
  /// historical fixed-query path; every churn site below is gated on a
  /// churn op actually happening. The modes it rejects are listed in
  /// Validate(). Not owned; must outlive the run.
  ServiceHooks* service = nullptr;
  /// Plan-maintenance strategy for runtime churn; ignored without a
  /// service driver. kRebuild is the from-scratch reference the churn
  /// differential test compares against; no CLI option selects it.
  PlanMaintenance plan_maintenance = PlanMaintenance::kIncremental;
  /// Optional crash-recovery layer (src/recovery/recovery.h,
  /// docs/RECOVERY.md): durable coordinator checkpoints at a simulated-
  /// time cadence, a write-ahead log of consumed ticks, an injected
  /// coordinator crash, and a restart path that resumes a crashed run
  /// bit-identically. Null (the default) leaves the run byte-identical
  /// (trace, metrics, registry) to a build without the recovery layer.
  /// The modes it rejects are listed in Validate(). Not owned; must
  /// outlive the run; `crashed`/`crash_event_id` are written back as
  /// outputs.
  recovery::RecoveryConfig* recovery = nullptr;

  /// One-line rendering of the full configuration, for run reports and
  /// test-failure messages.
  std::string Describe() const;

  /// The one home of the config-only mode rules, checked without a run:
  /// field ranges (coord_shards >= 1; threads, rt_fail_at and solve_cache
  /// >= 0; rt_fail_at 0 unless threads > 0; fidelity_stride >= 1;
  /// aao_period_s 0 or finite in (0, INT_MAX]), the delay, fault and
  /// recovery configs' own Validate(), and the rejected mode combinations:
  /// churn x {AAO, fault injection}; series without a trace sink, on an
  /// overlay node, or with a replay-mode or finalized recorder; recovery x
  /// {series, AAO, rt_fail_at}. RunSimulation calls it first, and
  /// polydab_experiment calls it before opening any output. Rules that
  /// need the queries or the tick source stay in RunSimulation.
  Status Validate() const;
};

std::ostream& operator<<(std::ostream& os, const SimConfig& config);

/// The paper's four metrics plus the fault-mode counters. The counters
/// are the checkpoint's 'met' record (recovery/run_counters.h), which the
/// engine counts into directly; the fidelity mean is derived at the end.
struct SimMetrics : recovery::RunCounters {
  double mean_fidelity_loss_pct = 0.0;  ///< mean over queries, in percent

  /// The paper's total cost metric: refreshes + mu * recomputations.
  /// The default μ is the shared core::kDefaultMu constant so every
  /// harness prices recomputations identically unless it sweeps μ.
  double TotalCost(double mu = core::kDefaultMu) const {
    return static_cast<double>(refreshes) +
           mu * static_cast<double>(recomputations);
  }
};

/// \brief Run the full push-based simulation of \p queries over \p traces.
///
/// \p rates are the per-item λ estimates fed to the planner (see
/// workload/rate_estimator.h). Deterministic given config.seed.
Result<SimMetrics> RunSimulation(const std::vector<PolynomialQuery>& queries,
                                 const workload::TraceSet& traces,
                                 const Vector& rates,
                                 const SimConfig& config);

/// \brief Streaming-ingest form: ticks are pulled one row at a time from
/// \p source (workload/tick_source.h) until end of stream; the run length
/// is however many rows the source yields. The canned overload above is a
/// thin adapter over this one, and a TraceSetTickSource-driven run is
/// byte-identical to it (tests/churn_diff_test.cc). The stream must
/// yield at least two rows (tick 0 plus one simulated tick).
Result<SimMetrics> RunSimulation(const std::vector<PolynomialQuery>& queries,
                                 workload::TickSource& source,
                                 const Vector& rates,
                                 const SimConfig& config);

}  // namespace polydab::sim

#endif  // POLYDAB_SIM_SIMULATION_H_
