#ifndef POLYDAB_CORE_PLANNER_H_
#define POLYDAB_CORE_PLANNER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/baseline.h"
#include "core/dual_dab.h"
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

/// §III-B: DAB assignment for *general* polynomial queries (mixed-sign
/// coefficients), where no efficient optimal technique is known. Both
/// heuristics rest on the key observation that P = P1 − P2 with P1, P2
/// positive-coefficient (poly/Polynomial::SplitSigns):
///
/// * Half and Half (HH): solve P1 : B/2 and P2 : B/2 independently. Correct
///   because the query can only drift past B if one sub-polynomial drifted
///   past B/2. The planner keeps the two solutions as separate plan parts
///   (an item in both is filtered at the smaller bound by the EQI merge).
///
/// * Different Sum (DS): solve the single PPQ  P1 + P2 : B  and use its
///   bounds. Correct because the dual-DAB condition for P1+P2 dominates
///   the one for P1−P2 term-by-term (Claim 1), and provably near-optimal
///   for independent sub-polynomials with small DABs (Claim 2, factor
///   1/(1−α)^d under the monotonic ddm).
enum class GeneralPqHeuristic {
  kHalfAndHalf,
  kDifferentSum,
};

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
  /// driving simulator sets `trace`; the relay overlay (net/relay.h) also
  /// sets `trace_node` to the overlay node the planner is working for.
  /// Null = off. Not owned.
  obs::TraceSink* trace = nullptr;
  int32_t trace_node = -1;

  /// One-line rendering of every knob, for run reports and test failures,
  /// e.g. "method=dual heuristic=ds ddm=mono mu=5".
  std::string Describe() const;
};

std::ostream& operator<<(std::ostream& os, const PlannerConfig& config);

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

/// \brief Plan DABs for one query at the current values, as independently
/// maintained parts.
///
/// LAQs (degree ≤ 1) take the closed form regardless of method. Other
/// queries are split by `config.heuristic` (pure-sign queries and PPQs
/// are solved as they are; a constant term is dropped) and each subquery
/// is solved cold with `config.method`. A zero polynomial is rejected.
Result<QueryPlan> PlanQueryParts(const PolynomialQuery& query,
                                 const Vector& values, const Vector& rates,
                                 const PlannerConfig& config);

/// \brief Re-solve one part after its validity range was violated,
/// warm-starting from the part's previous assignment. The part's subquery
/// is fixed at PlanQueryParts time (the sign split does not depend on
/// data values). When \p solve is set it receives the GP solve's record
/// (`solved` stays false for closed-form parts), for RecordReplanByCopy.
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

/// \brief The instruments of a ReplanPart call for a part whose inputs
/// are bitwise equal (SameReplanInputs) to one already re-solved under the
/// same values, rates and config, whose result (\p ok) the caller installs
/// itself: counts into `config.registry` the `core.planner.*` and
/// `gp.solver.*` increments ReplanPart would have made, replaying \p solve
/// (the record the solving call filled) the way a memo hit does, with a
/// zero replan latency sample as the replayed solve gets. Emits no trace
/// event.
void RecordReplanByCopy(const PlanPart& part, bool ok,
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
