#include "core/baseline.h"

#include <algorithm>
#include <cmath>

#include "core/condition.h"

namespace polydab::core {

namespace {

/// Runs the 100-halving bisection of [lo, hi] for the largest point that
/// \p fits. Stops as soon as a halving leaves (lo, hi) unchanged: the next
/// midpoint is then the same point with the same answer, so every halving
/// left would be the same no-op and the result equals the full 100.
template <typename Fits>
double Bisect(double lo, double hi, Fits fits) {
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (fits(mid)) {
      if (mid == lo) break;
      lo = mid;
    } else {
      if (mid == hi) break;
      hi = mid;
    }
  }
  return lo;
}

/// \brief P's terms re-indexed onto the query's sorted variable list, with
/// their values at V cached, so a probe P(V + δ) re-evaluates only the
/// terms δ touches and never copies the item-value Vector.
///
/// Every probe is bit-identical to Polynomial::Evaluate on the shifted
/// Vector: a term is computed in Monomial::Evaluate's multiply order, and
/// the term values are summed from 0.0 in canonical term order (an
/// untouched prefix of that sum is taken from the cache, where it was
/// formed by the same additions).
class TermCache {
 public:
  TermCache(const Polynomial& p, const std::vector<VarId>& vars,
            const Vector& values)
      : x_(vars.size()), at_v_(vars.size()), touched_start_(vars.size() + 1) {
    const std::vector<Monomial>& terms = p.terms();
    term_start_.reserve(terms.size() + 1);
    coef_.reserve(terms.size());
    value_.reserve(terms.size());
    prefix_.reserve(terms.size() + 1);
    double s = 0.0;
    prefix_.push_back(s);
    for (const Monomial& t : terms) {
      term_start_.push_back(factors_.size());
      coef_.push_back(t.coef());
      for (const auto& [var, exp] : t.powers()) {
        const size_t slot = static_cast<size_t>(
            std::lower_bound(vars.begin(), vars.end(), var) - vars.begin());
        factors_.push_back({slot, exp});
        ++touched_start_[slot + 1];
      }
      value_.push_back(t.Evaluate(values));
      s += value_.back();
      prefix_.push_back(s);
    }
    term_start_.push_back(factors_.size());

    for (size_t j = 0; j < vars.size(); ++j) {
      at_v_[j] = values[static_cast<size_t>(vars[j])];
      touched_start_[j + 1] += touched_start_[j];
    }
    x_ = at_v_;
    // Terms are visited in order, so each slot's term list comes out sorted.
    touched_.resize(touched_start_.back());
    std::vector<size_t> fill(touched_start_.begin(), touched_start_.end() - 1);
    for (size_t t = 0; t < terms.size(); ++t) {
      for (size_t f = term_start_[t]; f < term_start_[t + 1]; ++f) {
        touched_[fill[factors_[f].slot]++] = t;
      }
    }
  }

  /// P(V + d·e_j) − P(V) for the item in slot \p j.
  double ItemDrift(size_t j, double d) {
    x_[j] = at_v_[j] + d;
    const size_t* next = touched_.data() + touched_start_[j];
    const size_t* end = touched_.data() + touched_start_[j + 1];
    size_t t = *next;  // every variable occurs in some term
    double s = prefix_[t];
    for (; t < coef_.size(); ++t) {
      if (next != end && *next == t) {
        s += TermAtX(t);
        ++next;
      } else {
        s += value_[t];
      }
    }
    x_[j] = at_v_[j];
    return s - prefix_.back();
  }

  /// P(V + s·b) − P(V), with b given by slot.
  double JointDrift(double s, const std::vector<double>& b) {
    for (size_t i = 0; i < x_.size(); ++i) x_[i] = at_v_[i] + s * b[i];
    double sum = 0.0;
    for (size_t t = 0; t < coef_.size(); ++t) sum += TermAtX(t);
    x_ = at_v_;
    return sum - prefix_.back();
  }

 private:
  struct Factor {
    size_t slot;  // position in the query's sorted variable list
    int exp;
  };

  /// Term \p t at the shifted point x_, in Monomial::Evaluate's order.
  double TermAtX(size_t t) const {
    double prod = coef_[t];
    for (size_t f = term_start_[t]; f < term_start_[t + 1]; ++f) {
      const double v = x_[factors_[f].slot];
      double p = 1.0;
      for (int k = 0; k < factors_[f].exp; ++k) p *= v;
      prod *= p;
    }
    return prod;
  }

  std::vector<Factor> factors_;       // all terms' factors, term after term
  std::vector<size_t> term_start_;    // term t: factors_[term_start_[t], [t+1])
  std::vector<double> coef_;
  std::vector<double> value_;         // term values at V
  // prefix_[t] = Σ_{u<t} value_[u] summed in order; prefix_.back() = P(V).
  std::vector<double> prefix_;
  std::vector<double> x_;             // probe point, by slot
  std::vector<double> at_v_;          // V, by slot
  // Terms containing slot j: touched_[touched_start_[j], [j+1]), ascending.
  std::vector<size_t> touched_start_;
  std::vector<size_t> touched_;
};

/// Largest step d such that P(V + d·e_j) − P(V) ≤ budget, by doubling +
/// bisection (P is monotone increasing in each item over positive data).
double SolveSingleItemBound(TermCache* cache, size_t slot, double budget) {
  double hi = 1e-6;
  while (cache->ItemDrift(slot, hi) < budget && hi < 1e12) hi *= 2.0;
  return Bisect(0.0, hi, [&](double d) {
    return cache->ItemDrift(slot, d) <= budget;
  });
}

}  // namespace

Result<QueryDabs> SolveWsDab(const PolynomialQuery& query,
                             const Vector& values) {
  POLYDAB_RETURN_NOT_OK(CheckConditionInputs(query.p, values, query.qab));
  QueryDabs out;
  out.vars = query.p.Variables();
  const size_t k = out.vars.size();
  if (k == 0) {
    return Status::InvalidArgument("query has no variables");
  }
  TermCache cache(query.p, out.vars, values);

  // Step 1: per-item sufficient conditions with an equal QAB split.
  out.primary.resize(k);
  for (size_t i = 0; i < k; ++i) {
    out.primary[i] = SolveSingleItemBound(&cache, i,
                                          query.qab / static_cast<double>(k));
    if (out.primary[i] <= 0.0) {
      return Status::Internal("per-item bound collapsed to zero");
    }
  }

  // Step 2: cross terms are not covered by the per-item split; scale the
  // whole vector down until the joint worst case respects the QAB.
  auto fits = [&](double s) {
    return cache.JointDrift(s, out.primary) <= query.qab;
  };
  double scale = 1.0;
  if (cache.JointDrift(1.0, out.primary) > query.qab) {
    scale = Bisect(0.0, 1.0, fits);
  }
  for (double& b : out.primary) b *= scale;

  out.secondary = out.primary;  // mirrors primary; see single_dab
  out.single_dab = true;
  out.recompute_rate = 0.0;     // baseline models no rate information
  return out;
}

}  // namespace polydab::core
