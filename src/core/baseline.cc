#include "core/baseline.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/condition.h"

namespace polydab::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The per-item doubling starts at kFirstStep and stops once the step
// reaches kStepCap, so kMaxStep is the largest step it ever probes.
constexpr double kFirstStep = 1e-6;
constexpr double kStepCap = 1e12;
constexpr double kMaxStep = [] {
  double h = kFirstStep;
  while (h < kStepCap) h *= 2.0;
  return h;
}();

// Newton steps per threshold search before the bit search takes over.
constexpr int kNewtonSteps = 8;

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

// Non-negative doubles order like their bit patterns, so adding one to a
// pattern steps to the adjacent double.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }
double FromBits(uint64_t b) { return std::bit_cast<double>(b); }

/// The largest double in [lo, hi) that \p passes, for a predicate that is
/// true up to some point and false beyond it, where lo ≥ 0 passes and hi
/// fails (neither is asked). Asks at \p guess first (moved into the open
/// interval; any value is correct, a close one is fast), then gallops away
/// from it in steps of 1, 2, 4, … doubles until the answer flips, then
/// bisects the bit patterns.
template <typename Passes>
double LastPassing(double lo, double hi, double guess, Passes passes) {
  uint64_t a = Bits(lo);
  uint64_t b = Bits(hi);
  if (b - a > 1) {
    const uint64_t g = std::clamp(Bits(guess), a + 1, b - 1);
    const bool up = passes(FromBits(g));
    (up ? a : b) = g;
    for (uint64_t step = 1; b - a > 1; step *= 2) {
      const uint64_t c = up ? a + std::min(step, b - a - 1)
                            : b - std::min(step, b - a - 1);
      const bool ok = passes(FromBits(c));
      (ok ? a : b) = c;
      if (ok != up) break;
    }
  }
  while (b - a > 1) {
    const uint64_t mid = a + (b - a) / 2;
    (passes(FromBits(mid)) ? a : b) = mid;
  }
  return FromBits(a);
}

/// A drift and its slope along the probe's axis, at one point.
struct Probe {
  double drift;
  double slope;
};

/// Where a threshold search ended: the largest passing point and its drift.
struct Threshold {
  double last;
  double drift;
};

/// The largest double in [lo, hi) whose drift is ≤ \p budget, for a drift
/// that never decreases along the axis; lo (with drift \p lo_drift) passes
/// and hi fails. Newton steps over the probe's own slope, from \p x on,
/// narrow the bracket until a step moves by at most one double; then
/// LastPassing finishes from the last step's target.
template <typename ProbeAt>
Threshold LastWithin(double lo, double hi, double x, double budget,
                     double lo_drift, ProbeAt&& probe_at) {
  for (int i = 0; i < kNewtonSteps && Bits(hi) - Bits(lo) > 1; ++i) {
    if (!(x > lo)) x = FromBits(Bits(lo) + 1);
    if (!(x < hi)) x = FromBits(Bits(hi) - 1);
    const Probe p = probe_at(x);
    if (p.drift <= budget) {
      lo = x;
      lo_drift = p.drift;
    } else {
      hi = x;
    }
    const double next = x - (p.drift - budget) / p.slope;
    const bool settled = next >= 0.0 && Bits(next) - Bits(x) + 1 <= 2;
    x = next;
    if (settled) break;
  }
  const double last = LastPassing(lo, hi, x, [&](double y) {
    const double drift = probe_at(y).drift;
    if (!(drift <= budget)) return false;
    lo_drift = drift;
    return true;
  });
  return {last, lo_drift};
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
        touched_[fill[factors_[f].slot]++] = {t, factors_[f].exp};
      }
    }
  }

  /// V, by slot.
  const std::vector<double>& at_v() const { return at_v_; }

  /// ∂P/∂x_j at V.
  double ItemSlopeAtV(size_t j) const {
    double rate = 0.0;
    for (size_t i = touched_start_[j]; i < touched_start_[j + 1]; ++i) {
      rate += value_[touched_[i].term] * touched_[i].exp;
    }
    return rate / at_v_[j];
  }

  /// P − P(V) and ∂P/∂x_j at V with item slot \p j set to \p x.
  Probe ItemProbe(size_t j, double x) {
    x_[j] = x;
    const Touch* next = touched_.data() + touched_start_[j];
    const Touch* end = touched_.data() + touched_start_[j + 1];
    size_t t = next->term;  // every variable occurs in some term
    double s = prefix_[t];
    double rate = 0.0;  // Σ term·exponent = x·∂P/∂x_j
    for (; t < coef_.size(); ++t) {
      if (next != end && next->term == t) {
        const double term = TermAt(t, x_);
        s += term;
        rate += term * next->exp;
        ++next;
      } else {
        s += value_[t];
      }
    }
    x_[j] = at_v_[j];
    return {s - prefix_.back(), rate / x};
  }

  /// P(x) − P(V) and the derivative of P along \p b at \p x (both by slot).
  Probe JointProbe(const std::vector<double>& x,
                   const std::vector<double>& b) const {
    double sum = 0.0;
    double slope = 0.0;
    for (size_t t = 0; t < coef_.size(); ++t) {
      const double term = TermAt(t, x);
      sum += term;
      double rate = 0.0;
      for (size_t f = term_start_[t]; f < term_start_[t + 1]; ++f) {
        const size_t slot = factors_[f].slot;
        rate += factors_[f].exp * b[slot] / x[slot];
      }
      slope += term * rate;
    }
    return {sum - prefix_.back(), slope};
  }

 private:
  struct Factor {
    size_t slot;  // position in the query's sorted variable list
    int exp;
  };
  struct Touch {
    size_t term;
    int exp;  // the slot's exponent in that term
  };

  /// Term \p t at point \p x, in Monomial::Evaluate's order.
  double TermAt(size_t t, const std::vector<double>& x) const {
    double prod = coef_[t];
    for (size_t f = term_start_[t]; f < term_start_[t + 1]; ++f) {
      const double v = x[factors_[f].slot];
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
  std::vector<double> x_;             // item probe point, by slot
  std::vector<double> at_v_;          // V, by slot
  // Terms containing slot j: touched_[touched_start_[j], [j+1]), ascending.
  std::vector<size_t> touched_start_;
  std::vector<Touch> touched_;
};

/// The joint rescale's probe at scale s: the drift P(V + s·b) − P(V) and
/// its slope in s. The drift depends on s only through the rounded point
/// V + s·b, so a probe whose point equals that of the last passing or the
/// last failing probe returns that probe's result and evaluates no term.
class JointProbe {
 public:
  JointProbe(const TermCache& cache, const std::vector<double>& b,
             double budget)
      : cache_(cache), b_(b), budget_(budget), x_(b.size()) {}

  Probe operator()(double s) {
    const std::vector<double>& v = cache_.at_v();
    for (size_t i = 0; i < x_.size(); ++i) x_[i] = v[i] + s * b_[i];
    for (const Seen& seen : seen_) {
      if (seen.x == x_) return seen.probe;
    }
    const Probe p = cache_.JointProbe(x_, b_);
    Seen& slot = seen_[p.drift <= budget_ ? 0 : 1];
    slot.x = x_;
    slot.probe = p;
    return p;
  }

 private:
  struct Seen {
    std::vector<double> x;  // empty until a probe lands here
    Probe probe{};
  };

  const TermCache& cache_;
  const std::vector<double>& b_;
  const double budget_;
  std::vector<double> x_;
  Seen seen_[2];  // last passing, last failing
};

/// Largest step d such that P(V + d·e_j) − P(V) ≤ budget: the result of
/// doubling d from kFirstStep while the drift stays below budget, then
/// bisecting [0, hi] (P is monotone increasing in each item over positive
/// data). Both loops are replayed, without probes, against the points
/// where their tests flip on x = V_j + d (docs/ALGORITHMS.md §8).
double SolveSingleItemBound(TermCache* cache, size_t j, double budget) {
  const double v = cache->at_v()[j];
  auto probe_at = [&](double x) { return cache->ItemProbe(j, x); };
  // X≤, the last x whose drift is within budget. V passes: its drift is
  // exactly 0 (the probe repeats the cached sum) and budget > 0. No step
  // beyond kMaxStep is ever probed, so the search stops at V + kMaxStep.
  const Threshold le = LastWithin(
      v, std::nextafter(v + kMaxStep, kInf),
      v + budget / cache->ItemSlopeAtV(j), budget, 0.0, probe_at);
  const double x_le = le.last;
  // X<, the last x whose drift is below budget (the doubling's test): X≤
  // itself unless X≤'s drift equals the budget.
  double x_lt = x_le;
  if (!(le.drift < budget)) {
    x_lt = LastPassing(v, x_le, x_le, [&](double x) {
      return probe_at(x).drift < budget;
    });
  }

  double hi = kFirstStep;
  while (v + hi <= x_lt && hi < kStepCap) hi *= 2.0;
  auto fits = [&](double d) { return v + d <= x_le; };
  double last = hi;
  if (!fits(hi)) {
    // V + d rounds past X≤ about half an ulp of X≤ beyond X≤ − V.
    const double half_ulp = 0.5 * (std::nextafter(x_le, kInf) - x_le);
    last = LastPassing(0.0, hi, (x_le - v) + half_ulp, fits);
  }
  return BisectToLast(hi, last);
}

}  // namespace

double BisectToLast(double hi, double last) {
  // When hi fails and last ≥ 2⁻³⁰·hi the halvings end on last. While
  // lo = 0 a midpoint is hi/2 exactly, so by halving i ≤ 30 lo = hi·2⁻ⁱ ≤
  // last and hi = 2·lo. From there every point is a multiple of u =
  // ulp(lo), a rounded midpoint is off the true one by at most u, and the
  // width (< 2⁵³·u) falls below 3u within 53 halvings. A midpoint of two
  // non-adjacent positive doubles lies strictly between them, so one more
  // halving leaves lo = last next to hi and the next one stops: at most
  // 30 + 55 < 100 halvings (docs/ALGORITHMS.md §8).
  if (last < hi && last >= std::ldexp(hi, -30)) return last;
  return Bisect(0.0, hi, [last](double d) { return d <= last; });
}

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
  // whole vector down until the joint worst case respects the QAB. The
  // bisection of [0, 1] is replayed against S*, the last s that fits
  // (s = 0 is the point V itself, drift 0).
  JointProbe joint(cache, out.primary, query.qab);
  const Probe at_one = joint(1.0);
  double scale = 1.0;
  if (at_one.drift > query.qab) {
    const double first = 1.0 - (at_one.drift - query.qab) / at_one.slope;
    scale = BisectToLast(
        1.0, LastWithin(0.0, 1.0, first, query.qab, 0.0, joint).last);
  }
  for (double& b : out.primary) b *= scale;

  out.secondary = out.primary;  // mirrors primary; see single_dab
  out.single_dab = true;
  out.recompute_rate = 0.0;     // baseline models no rate information
  return out;
}

}  // namespace polydab::core
