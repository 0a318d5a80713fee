#include "core/planner.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "common/hash.h"
#include "obs/trace.h"

namespace polydab::core {

namespace {

/// Record a planner event on the run's causal trace, stamped with the
/// sink's logical clock (the driving simulator advances it). One branch
/// when tracing is off, like every other emission site.
void TracePlannerEvent(const PlannerConfig& config, obs::TraceEventKind kind,
                       int query, bool ok) {
  if (config.trace == nullptr) return;
  obs::TraceEvent e;
  e.time = config.trace->now();
  e.kind = kind;
  e.node = config.trace_node;
  e.query = query;
  e.flag = ok ? 1 : 0;
  config.trace->Emit(e);
}

/// The Dual-DAB parameters of the planner's GP solves. The planner's
/// telemetry registry (if any) is propagated into the GP solver options so
/// one `PlannerConfig::registry` assignment instruments the whole stack.
/// A non-null \p record receives the GP solve's SolveRecord.
DualDabParams SubSolverParams(const PlannerConfig& config,
                              gp::SolveRecord* record) {
  DualDabParams dual = config.dual;
  if (dual.solver.registry == nullptr) dual.solver.registry = config.registry;
  dual.solver.record = record;
  return dual;
}

/// Solve one PPQ with the configured assignment method.
Result<QueryDabs> SolvePpq(AssignmentMethod method, const PolynomialQuery& q,
                           const Vector& values, const Vector& rates,
                           const DualDabParams& dual, const QueryDabs* warm) {
  switch (method) {
    case AssignmentMethod::kOptimalRefresh:
      return SolveOptimalRefresh(q, values, rates, dual.ddm, dual.solver,
                                 warm);
    case AssignmentMethod::kDualDab:
      return SolveDualDab(q, values, rates, dual, warm);
    case AssignmentMethod::kWsDab:
      return SolveWsDab(q, values);
  }
  return Status::Internal("unknown assignment method");
}

/// Decompose a general query into the sub-queries its heuristic solves:
/// HH -> {P1 : B/2, P2 : B/2}; DS -> {P1+P2 : B}; pure-sign queries and
/// PPQs -> themselves.
Result<std::vector<PolynomialQuery>> SplitSubqueries(
    const PolynomialQuery& query, GeneralPqHeuristic heuristic) {
  Polynomial p1, p2;
  query.p.SplitSigns(&p1, &p2);
  if (p1.IsZero() && p2.IsZero()) {
    return Status::InvalidArgument("query polynomial is zero");
  }
  if (p2.IsZero() || p2.Degree() == 0) {
    // A constant negative term shifts the value but not the drift.
    PolynomialQuery q = query;
    q.p = p1;
    return std::vector<PolynomialQuery>{q};
  }
  if (p1.IsZero() || p1.Degree() == 0) {
    PolynomialQuery q = query;
    q.p = p2;  // -P2 drifts exactly as P2
    return std::vector<PolynomialQuery>{q};
  }
  switch (heuristic) {
    case GeneralPqHeuristic::kHalfAndHalf:
      return std::vector<PolynomialQuery>{
          {query.id, p1, query.qab / 2.0},
          {query.id, p2, query.qab / 2.0}};
    case GeneralPqHeuristic::kDifferentSum:
      return std::vector<PolynomialQuery>{{query.id, p1 + p2, query.qab}};
  }
  return Status::Internal("unknown heuristic");
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

/// The `core.planner.*` increments of one ReplanPart call.
void RecordReplan(obs::MetricRegistry* reg, const PlanPart& part, bool ok) {
  reg->GetCounter("core.planner.replans")->Inc();
  if (!part.subquery.IsLinearAggregate()) {
    // Every replan is warm-started from the part's previous assignment;
    // a hit is a warm solve that actually succeeded. Hit rate =
    // hits / (hits + misses).
    reg->GetCounter(ok ? "core.planner.warm_start_hits"
                       : "core.planner.warm_start_misses")
        ->Inc();
  }
}

}  // namespace

const char* Name(AssignmentMethod method) {
  switch (method) {
    case AssignmentMethod::kOptimalRefresh: return "optimal";
    case AssignmentMethod::kDualDab: return "dual";
    case AssignmentMethod::kWsDab: return "wsdab";
  }
  return "?";
}

const char* Name(GeneralPqHeuristic heuristic) {
  switch (heuristic) {
    case GeneralPqHeuristic::kHalfAndHalf: return "hh";
    case GeneralPqHeuristic::kDifferentSum: return "ds";
  }
  return "?";
}

const char* Name(DataDynamicsModel ddm) {
  switch (ddm) {
    case DataDynamicsModel::kMonotonic: return "mono";
    case DataDynamicsModel::kRandomWalk: return "walk";
  }
  return "?";
}

std::string PlannerConfig::Describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "method=%s heuristic=%s ddm=%s mu=%g duality_tol=%g",
                Name(method), Name(heuristic), Name(dual.ddm), dual.mu,
                dual.solver.duality_tol);
  return buf;
}

std::ostream& operator<<(std::ostream& os, const PlannerConfig& config) {
  return os << config.Describe();
}

Result<QueryPlan> PlanQueryParts(const PolynomialQuery& query,
                                 const Vector& values, const Vector& rates,
                                 const PlannerConfig& config) {
  if (query.p.IsZero()) {
    return Status::InvalidArgument("query polynomial is zero");
  }
  obs::ScopedTimer timer(
      config.registry == nullptr
          ? nullptr
          : config.registry->GetHistogram("core.planner.plan_seconds"));
  if (config.registry != nullptr) {
    config.registry->GetCounter("core.planner.plans")->Inc();
  }
  QueryPlan plan;
  if (query.IsLinearAggregate()) {
    POLYDAB_ASSIGN_OR_RETURN(QueryDabs d,
                             SolveLaq(query, rates, config.dual.ddm));
    plan.parts.push_back(PlanPart{query, std::move(d)});
    TracePlannerEvent(config, obs::TraceEventKind::kPlannerPlan, query.id,
                      true);
    return plan;
  }
  POLYDAB_ASSIGN_OR_RETURN(std::vector<PolynomialQuery> subs,
                           SplitSubqueries(query, config.heuristic));
  const DualDabParams dual = SubSolverParams(config, nullptr);
  for (PolynomialQuery& sub : subs) {
    POLYDAB_ASSIGN_OR_RETURN(
        QueryDabs d, SolvePpq(config.method, sub, values, rates, dual, nullptr));
    plan.parts.push_back(PlanPart{std::move(sub), std::move(d)});
  }
  TracePlannerEvent(config, obs::TraceEventKind::kPlannerPlan, query.id,
                    true);
  return plan;
}

Result<QueryDabs> ReplanPart(const PlanPart& part, const Vector& values,
                             const Vector& rates,
                             const PlannerConfig& config,
                             gp::SolveRecord* solve) {
  obs::MetricRegistry* reg = config.registry;
  obs::ScopedTimer timer(
      reg == nullptr ? nullptr
                     : reg->GetHistogram("core.planner.replan_seconds"));
  Result<QueryDabs> result =
      part.subquery.IsLinearAggregate()
          ? SolveLaq(part.subquery, rates, config.dual.ddm)
          : SolvePpq(config.method, part.subquery, values, rates,
                     SubSolverParams(config, solve), &part.dabs);
  if (reg != nullptr) RecordReplan(reg, part, result.ok());
  TraceReplan(config, part, result.ok());
  return result;
}

void TraceReplan(const PlannerConfig& config, const PlanPart& part,
                 bool ok) {
  TracePlannerEvent(config, obs::TraceEventKind::kPlannerReplan,
                    part.subquery.id, ok);
}

bool SameReplanInputs(const PlanPart& a, const PlanPart& b) {
  const std::vector<Monomial>& ta = a.subquery.p.terms();
  const std::vector<Monomial>& tb = b.subquery.p.terms();
  if (!SameBits(a.subquery.qab, b.subquery.qab) || ta.size() != tb.size()) {
    return false;
  }
  for (size_t k = 0; k < ta.size(); ++k) {
    if (!SameBits(ta[k].coef(), tb[k].coef()) || !ta[k].SamePowers(tb[k])) {
      return false;
    }
  }
  const QueryDabs& da = a.dabs;
  const QueryDabs& db = b.dabs;
  return da.vars == db.vars && SameBits(da.primary, db.primary) &&
         SameBits(da.secondary, db.secondary) &&
         SameBits(da.recompute_rate, db.recompute_rate) &&
         da.single_dab == db.single_dab && da.never_stale == db.never_stale;
}

uint64_t ReplanInputsHash(const PlanPart& part) {
  uint64_t h = 0;
  auto mix = [&h](uint64_t v) { h = Mix64(h ^ v); };
  auto mix_double = [&mix](double v) { mix(std::bit_cast<uint64_t>(v)); };
  mix_double(part.subquery.qab);
  for (const Monomial& m : part.subquery.p.terms()) {
    mix_double(m.coef());
    for (const auto& [var, exp] : m.powers()) {
      mix((static_cast<uint64_t>(static_cast<uint32_t>(var)) << 32) |
          static_cast<uint32_t>(exp));
    }
  }
  for (double b : part.dabs.primary) mix_double(b);
  for (double c : part.dabs.secondary) mix_double(c);
  return h;
}

void RecordReplanByCopy(const PlanPart& part, bool ok,
                        const gp::SolveRecord& solve,
                        const PlannerConfig& config) {
  obs::MetricRegistry* reg = config.registry;
  // The solver registry the solving call used (see SubSolverParams).
  gp::ReplaySolveInstruments(config.dual.solver.registry != nullptr
                                 ? config.dual.solver.registry
                                 : reg,
                             solve);
  if (reg == nullptr) return;
  reg->GetHistogram("core.planner.replan_seconds")->Record(0.0);
  RecordReplan(reg, part, ok);
}

StalenessWidening WideningFor(const PolynomialQuery& query, VarId item,
                              const Vector& view) {
  StalenessWidening w;
  Polynomial d = query.p.PartialDerivative(item);
  if (d.IsZero()) {
    // The query does not read the item at all: no widening needed.
    w.boundable = true;
    w.sensitivity = 0.0;
    return w;
  }
  // Boundable iff dQ/d(item) is itself independent of the item, i.e. the
  // query has degree <= 1 in it. Then the error contributed by serving
  // the stale view value is exactly sensitivity * drift, whatever the
  // (unknown) live value does; with a higher degree the derivative
  // depends on the lost value and no finite widening is sound.
  w.boundable = d.PartialDerivative(item).IsZero();
  w.sensitivity = w.boundable ? std::fabs(d.Evaluate(view)) : 0.0;
  return w;
}

}  // namespace polydab::core
