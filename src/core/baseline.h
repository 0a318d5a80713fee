#ifndef POLYDAB_CORE_BASELINE_H_
#define POLYDAB_CORE_BASELINE_H_

#include "common/status.h"
#include "core/query.h"

/// \file baseline.h
/// "WSDAB": the per-item sufficient-condition comparator adapted from the
/// geometric monitoring approach of Sharfman et al. [5], as characterized
/// in §V-A of the paper — instead of the single necessary-and-sufficient
/// condition, it enforces n sufficient conditions, one per data item,
/// which yields more stringent DABs (hence more refreshes). Like Optimal
/// Refresh it is a single-DAB scheme: every refresh invalidates the
/// assignment, so every refresh triggers a recomputation.

namespace polydab::core {

/// \brief Assign single DABs to PPQ \p query by splitting the QAB equally
/// across its data items and bounding each item's individual worst-case
/// contribution, then conservatively scaling the vector down until the
/// joint condition P(V+b) − P(V) ≤ B holds (cross terms make the per-item
/// split alone insufficient). Rates of change are deliberately unused —
/// the baseline, like [5], has no way to exploit them.
Result<QueryDabs> SolveWsDab(const PolynomialQuery& query,
                             const Vector& values);

/// What SolveWsDab's bisection returns for a step test that holds exactly
/// up to \p last: 100 halvings of [0, \p hi] that keep the upper half
/// while the midpoint d satisfies d ≤ last. That is \p last itself when
/// the halvings provably end on it, else the replayed halvings' result.
double BisectToLast(double hi, double last);

}  // namespace polydab::core

#endif  // POLYDAB_CORE_BASELINE_H_
