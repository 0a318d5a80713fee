#ifndef POLYDAB_CORE_PLANNER_H_
#define POLYDAB_CORE_PLANNER_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/status.h"
#include "core/baseline.h"
#include "core/dual_dab.h"
#include "core/heuristics.h"
#include "core/laq.h"
#include "core/optimal_refresh.h"
#include "core/query.h"

/// \file planner.h
/// Unified per-query DAB planning front-end: dispatches on the chosen
/// algorithm and, for general (mixed-sign) queries, on the chosen
/// heuristic. This is the single entry point the simulator's coordinator
/// calls on every (re)computation, so all of the paper's schemes can be
/// compared under identical protocol mechanics.

namespace polydab::obs {
class TraceSink;
}  // namespace polydab::obs

namespace polydab::core {

/// Which assignment algorithm drives the coordinator.
enum class AssignmentMethod {
  kOptimalRefresh,  ///< §III-A.1 single-DAB refresh-optimal
  kDualDab,         ///< §III-A.2 dual-DAB (primary + secondary)
  kWsDab,           ///< [5]-style per-item sufficient-condition baseline
};

/// Short lower-case names for log lines and run reports ("dual", "hh"...).
const char* Name(AssignmentMethod method);
const char* Name(GeneralPqHeuristic heuristic);
const char* Name(DataDynamicsModel ddm);

/// Full planner configuration.
struct PlannerConfig {
  AssignmentMethod method = AssignmentMethod::kDualDab;
  /// Heuristic for general PQs (queries with negative coefficients).
  GeneralPqHeuristic heuristic = GeneralPqHeuristic::kDifferentSum;
  /// Dual-DAB parameters (mu, ddm, solver tunables). The ddm also applies
  /// to Optimal Refresh.
  DualDabParams dual;
  /// Optional telemetry sink recording the `core.planner.*` instruments
  /// (plan/replan latency, warm-start hit rate) and, propagated into the
  /// GP solver, the `gp.solver.*` instruments. Null = off. Not owned.
  obs::MetricRegistry* registry = nullptr;
  /// Optional causal event trace (obs/trace.h): emits planner_plan /
  /// planner_replan events stamped with the sink's logical clock. The
  /// driving simulator sets both fields; `trace_node` tags the events
  /// with the coordinator the planner is working for. Null = off.
  /// Not owned.
  obs::TraceSink* trace = nullptr;
  int32_t trace_node = -1;

  /// One-line rendering of every knob, for run reports and test failures,
  /// e.g. "method=dual heuristic=ds ddm=mono mu=5".
  std::string Describe() const;
};

std::ostream& operator<<(std::ostream& os, const PlannerConfig& config);

/// \brief Plan DABs for one query at the current values.
///
/// LAQs (degree ≤ 1) take the closed form regardless of method. General
/// queries are routed through `config.heuristic`; for single-DAB methods
/// the heuristic runs with the equivalent single-DAB sub-solver.
Result<QueryDabs> PlanQuery(const PolynomialQuery& query,
                            const Vector& values, const Vector& rates,
                            const PlannerConfig& config,
                            const QueryDabs* warm = nullptr);

/// One independently maintained piece of a query's plan. Under Half and
/// Half a general query has two parts (P1 : B/2 and P2 : B/2), each with
/// its own validity anchors and its own recomputations — the coordinator
/// tracks and repairs them separately (§III-B.2). Every other scheme
/// produces a single part (for DS the part's subquery is P1+P2 : B).
struct PlanPart {
  PolynomialQuery subquery;  ///< the PPQ/LAQ actually solved for this part
  QueryDabs dabs;
};

/// A query's full plan: one or two parts.
struct QueryPlan {
  std::vector<PlanPart> parts;
};

/// \brief Plan a query as independently maintained parts. This is the
/// form the simulator consumes; PlanQuery is the merged convenience view.
Result<QueryPlan> PlanQueryParts(const PolynomialQuery& query,
                                 const Vector& values, const Vector& rates,
                                 const PlannerConfig& config);

/// \brief Re-solve one part after its validity range was violated,
/// warm-starting from the part's previous assignment. The part's subquery
/// is fixed at PlanQueryParts time (the sign split does not depend on
/// data values). When \p solve is set it receives the GP solve's record
/// (`solved` stays false for closed-form parts), for ReplanPartByCopy.
Result<QueryDabs> ReplanPart(const PlanPart& part, const Vector& values,
                             const Vector& rates,
                             const PlannerConfig& config,
                             gp::SolveRecord* solve = nullptr);

/// \brief Emit the planner_replan event ReplanPart emits for \p part on
/// `config.trace` (no-op when null), stamped with the sink's clock. For
/// callers that solve a part ahead of its oracle slot with the trace
/// detached and emit the event at that slot themselves (the simulator's
/// threaded refresh service).
void TraceReplan(const PlannerConfig& config, const PlanPart& part, bool ok);

/// True when \p a and \p b have bitwise-equal replan inputs: subquery
/// terms (coefficients and powers), qab, and the warm assignment. The
/// subquery id is excluded — only trace emission reads it — so with
/// `config.trace` null, ReplanPart(a, ...) and ReplanPart(b, ...) return
/// bitwise-equal results for the same values, rates and config. This is
/// the EQI-equivalent case (§IV) of several users registering one query.
bool SameReplanInputs(const PlanPart& a, const PlanPart& b);

/// 64-bit digest of exactly the inputs SameReplanInputs compares. Equal
/// inputs give equal digests; it only buckets, never decides equality.
uint64_t ReplanInputsHash(const PlanPart& part);

/// \brief ReplanPart for a part whose inputs are bitwise equal
/// (SameReplanInputs) to one already re-solved under the same values,
/// rates and config: returns a copy of that call's \p result, and counts
/// into `config.registry` the `core.planner.*` and `gp.solver.*`
/// increments ReplanPart would have made, replaying \p solve (the record
/// the solving call filled) the way a memo hit does. The replan latency
/// sample times the copy. Emits no trace event.
Result<QueryDabs> ReplanPartByCopy(const PlanPart& part,
                                   const Result<QueryDabs>& result,
                                   const gp::SolveRecord& solve,
                                   const PlannerConfig& config);

/// Staleness-aware bound widening (the robustness protocol's graceful
/// degradation, docs/ROBUSTNESS.md): when an item's source lease expires,
/// the coordinator can keep serving the query under a widened bound only
/// when the query's dependence on the dead item is linear — degree <= 1
/// in that item, so dQ/d(item) does not itself depend on the unknown
/// stale value and the worst-case error grows exactly as
/// sensitivity * drift. Higher-degree dependence is unboundable without
/// the live value and the query must be marked degraded instead.
struct StalenessWidening {
  bool boundable = false;    ///< query has degree <= 1 in the item
  double sensitivity = 0.0;  ///< |dQ/d(item)| at the view; 0 if unboundable
};

/// Widening of \p query per unit of worst-case drift of \p item,
/// evaluated at the coordinator's current \p view.
StalenessWidening WideningFor(const PolynomialQuery& query, VarId item,
                              const Vector& view);

}  // namespace polydab::core

#endif  // POLYDAB_CORE_PLANNER_H_
