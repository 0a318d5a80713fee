#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "common/rng.h"
#include "core/baseline.h"
#include "core/condition.h"
#include "core/optimal_refresh.h"
#include "workload/query_gen.h"

namespace polydab::core {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  VariableRegistry reg_;
  VarId x_ = reg_.Intern("x");
  VarId y_ = reg_.Intern("y");

  PolynomialQuery Q(const std::string& s, double qab) {
    auto r = Polynomial::Parse(s, &reg_);
    EXPECT_TRUE(r.ok());
    return PolynomialQuery{0, *r, qab};
  }
};

TEST_F(BaselineTest, AssignmentIsFeasible) {
  PolynomialQuery q = Q("x*y", 5.0);
  Vector values = {2.0, 2.0};
  auto d = SolveWsDab(q, values);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  Vector shifted = values;
  shifted[0] += d->primary[0];
  shifted[1] += d->primary[1];
  EXPECT_LE(shifted[0] * shifted[1] - 4.0, 5.0 * (1.0 + 1e-6));
  EXPECT_EQ(d->primary, d->secondary);  // single-DAB scheme
}

TEST_F(BaselineTest, MoreStringentThanOptimalRefresh) {
  // §V-A: the [5]-style per-item sufficient conditions produce more
  // stringent DABs than the single necessary-and-sufficient condition, so
  // the baseline's modeled refresh load is strictly higher.
  PolynomialQuery q = Q("x*y", 50.0);
  Vector values = {40.0, 20.0};
  Vector rates = {1.0, 1.0};
  auto base = SolveWsDab(q, values);
  ASSERT_TRUE(base.ok());
  auto opt = SolveOptimalRefresh(q, values, rates);
  ASSERT_TRUE(opt.ok());
  const double base_load = 1.0 / base->primary[0] + 1.0 / base->primary[1];
  const double opt_load = 1.0 / opt->primary[0] + 1.0 / opt->primary[1];
  EXPECT_GT(base_load, opt_load);
}

TEST_F(BaselineTest, HigherDegreeQuery) {
  // The comparison function family of §V-A uses higher powers (x*y^4).
  PolynomialQuery q = Q("x*y^4", 50.0);
  Vector values = {40.0, 20.0};
  auto d = SolveWsDab(q, values);
  ASSERT_TRUE(d.ok());
  Vector shifted = values;
  shifted[0] += d->primary[0];
  shifted[1] += d->primary[1];
  EXPECT_LE(q.p.Evaluate(shifted) - q.p.Evaluate(values),
            50.0 * (1.0 + 1e-6));
  EXPECT_GT(d->primary[0], 0.0);
  EXPECT_GT(d->primary[1], 0.0);
}

TEST_F(BaselineTest, IgnoresRatesByDesign) {
  // WSDAB has no rate input at all; the same values give the same bounds.
  PolynomialQuery q = Q("x*y + y^2", 3.0);
  Vector values = {7.0, 9.0};
  auto a = SolveWsDab(q, values);
  auto b = SolveWsDab(q, values);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->primary, b->primary);
}

TEST_F(BaselineTest, RejectsBadInputs) {
  EXPECT_FALSE(SolveWsDab(Q("x - y", 1.0), {1.0, 1.0}).ok());
  EXPECT_FALSE(SolveWsDab(Q("x*y", -1.0), {1.0, 1.0}).ok());
  EXPECT_FALSE(SolveWsDab(Q("x*y", 1.0), {0.0, 1.0}).ok());
}

// ---------------------------------------------------------------------------
// Bit-identity oracle. SolveWsDab evaluates its probes from cached term
// values and stops each bisection at its fixed point; ReferenceSolveWsDab
// below is the straightforward form it replaced (every probe copies the
// value Vector and calls Polynomial::Evaluate, every bisection runs all
// 100 halvings), kept verbatim except for the \p rescaled report. The two
// must agree bit for bit: the committed serial goldens depend on it.

double ReferenceSingleItemBound(const Polynomial& p, const Vector& values,
                                VarId item, double budget) {
  const double base = p.Evaluate(values);
  auto drift = [&](double d) {
    Vector shifted = values;
    shifted[static_cast<size_t>(item)] += d;
    return p.Evaluate(shifted) - base;
  };
  double hi = 1e-6;
  while (drift(hi) < budget && hi < 1e12) hi *= 2.0;
  double lo = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (drift(mid) <= budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<QueryDabs> ReferenceSolveWsDab(const PolynomialQuery& query,
                                      const Vector& values, bool* rescaled) {
  POLYDAB_RETURN_NOT_OK(CheckConditionInputs(query.p, values, query.qab));
  QueryDabs out;
  out.vars = query.p.Variables();
  const size_t k = out.vars.size();
  if (k == 0) {
    return Status::InvalidArgument("query has no variables");
  }
  out.primary.resize(k);
  for (size_t i = 0; i < k; ++i) {
    out.primary[i] = ReferenceSingleItemBound(
        query.p, values, out.vars[i], query.qab / static_cast<double>(k));
    if (out.primary[i] <= 0.0) {
      return Status::Internal("per-item bound collapsed to zero");
    }
  }
  auto joint_drift = [&](double s) {
    Vector shifted = values;
    for (size_t i = 0; i < k; ++i) {
      shifted[static_cast<size_t>(out.vars[i])] += s * out.primary[i];
    }
    return query.p.Evaluate(shifted) - query.p.Evaluate(values);
  };
  double scale = 1.0;
  *rescaled = joint_drift(1.0) > query.qab;
  if (*rescaled) {
    double lo = 0.0, hi = 1.0;
    for (int i = 0; i < 100; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (joint_drift(mid) <= query.qab) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    scale = lo;
  }
  for (double& b : out.primary) b *= scale;
  out.secondary = out.primary;
  out.single_dab = true;
  out.recompute_rate = 0.0;
  return out;
}

std::vector<uint64_t> Bits(const Vector& v) {
  std::vector<uint64_t> out;
  for (double d : v) out.push_back(std::bit_cast<uint64_t>(d));
  return out;
}

/// Tallies of an oracle sweep: cases compared and which step-2 branch the
/// reference took.
struct OracleSweep {
  int cases = 0;
  int rescaled = 0;
  int unscaled = 0;

  void Check(const PolynomialQuery& q, const Vector& values) {
    bool rescale = false;
    auto want = ReferenceSolveWsDab(q, values, &rescale);
    auto got = SolveWsDab(q, values);
    ++cases;
    ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
      return;
    }
    ++(rescale ? rescaled : unscaled);
    EXPECT_EQ(got->vars, want->vars);
    EXPECT_EQ(Bits(got->primary), Bits(want->primary));
    EXPECT_EQ(Bits(got->secondary), Bits(want->secondary));
    EXPECT_EQ(got->single_dab, want->single_dab);
  }
};

Vector RandomValues(Rng* rng, size_t n) {
  Vector v(n);
  for (double& x : v) x = rng->Uniform(20.0, 200.0);
  return v;
}

TEST(BaselineOracleTest, BitIdenticalToReferenceOnSeededSweep) {
  OracleSweep sweep;
  workload::QueryGenConfig qc;

  // Portfolio PPQs (Σ w·x_a·x_b), solved at the generation snapshot and
  // again after a drift of every value, as a re-plan would.
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    Vector values = RandomValues(&rng, 100);
    auto qs = workload::GeneratePortfolioQueries(2, qc, values, &rng);
    ASSERT_TRUE(qs.ok());
    Vector moved = values;
    for (double& x : moved) x *= rng.Uniform(0.9, 1.1);
    for (const PolynomialQuery& q : *qs) {
      sweep.Check(q, values);
      sweep.Check(q, moved);
    }
  }

  // Positive parts of mixed-sign queries: linear, square, x²·y and
  // bilinear terms, once as generated and once with a constant term.
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(1000 + seed);
    Vector values = RandomValues(&rng, 100);
    auto qs = workload::GenerateMixedSignQueries(2, qc, values, &rng);
    ASSERT_TRUE(qs.ok());
    for (const PolynomialQuery& q : *qs) {
      Polynomial pos, neg;
      q.p.SplitSigns(&pos, &neg);
      PolynomialQuery part{q.id, pos, q.qab};
      sweep.Check(part, values);
      part.p = pos + Polynomial::Constant(rng.Uniform(1.0, 50.0));
      sweep.Check(part, values);
    }
  }

  // The §V-A higher-power comparison function x·y⁴.
  VariableRegistry reg;
  auto xy4 = Polynomial::Parse("x*y^4", &reg);
  ASSERT_TRUE(xy4.ok());
  Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    Vector values = {rng.Uniform(1.0, 60.0), rng.Uniform(1.0, 60.0)};
    const double qab = xy4->Evaluate(values) * rng.Uniform(0.001, 0.05);
    sweep.Check(PolynomialQuery{0, *xy4, qab}, values);
  }

  // An item with a negligible coefficient: its drift never reaches the
  // budget, so its doubling loop runs to the 1e12 cap.
  auto tiny = Polynomial::Parse("0.000000000000000000000000000001*z + x*y",
                                &reg);
  ASSERT_TRUE(tiny.ok());
  const VarId z = reg.Find("z");
  for (int i = 0; i < 20; ++i) {
    Vector values = {rng.Uniform(1.0, 60.0), rng.Uniform(1.0, 60.0),
                     rng.Uniform(1.0, 60.0)};
    const double qab = rng.Uniform(0.5, 20.0);
    sweep.Check(PolynomialQuery{0, *tiny, qab}, values);
    auto d = SolveWsDab(PolynomialQuery{0, *tiny, qab}, values);
    ASSERT_TRUE(d.ok());
    EXPECT_GT(d->primary[static_cast<size_t>(d->IndexOf(z))], 1e11);
  }

  EXPECT_GE(sweep.cases, 500);
  EXPECT_GT(sweep.rescaled, 0);
  EXPECT_GT(sweep.unscaled, 0);
}

// ---------------------------------------------------------------------------
// Exactness sweep of the threshold search. SolveWsDab replays the doubling
// (test drift < B) and the bisection (test drift ≤ B) against the points
// where those tests flip, and returns the bisection's end point directly
// when the halvings provably stop there (docs/ALGORITHMS.md §8). Each case
// below drives one branch of that search against the reference above.

/// P(V + d·e_item) − P(V), as the reference computes it.
double ReferenceDrift(const Polynomial& p, const Vector& values, VarId item,
                      double d) {
  Vector shifted = values;
  shifted[static_cast<size_t>(item)] += d;
  return p.Evaluate(shifted) - p.Evaluate(values);
}

Polynomial Poly(std::vector<Monomial> terms) {
  return Polynomial(std::move(terms));
}

constexpr VarId kX = 0;
constexpr VarId kY = 1;
constexpr VarId kZ = 2;

TEST(BaselineExactnessTest, BudgetEqualToADriftSplitsTheTwoTests) {
  // B/k is set to a drift the search meets exactly, so at that point the
  // doubling's drift < B fails while the bisection's drift ≤ B holds. A
  // large constant term quantizes the drift, so the drift equals B over a
  // run of points. The step is a doubling point 1e-6·2ᵐ in half the cases,
  // so the doubling stops on a point that still fits.
  OracleSweep sweep;
  Rng rng(2027);
  const std::vector<Polynomial> polys = {
      Poly({Monomial(3.0, {{kX, 1}})}),
      Poly({Monomial(1e6), Monomial(2.5, {{kX, 1}})}),
      Poly({Monomial(1e9), Monomial(0.75, {{kX, 2}})}),
      Poly({Monomial(4e4), Monomial(1.0, {{kX, 1}, {kY, 1}})}),
      Poly({Monomial(1.5, {{kX, 1}, {kY, 1}}), Monomial(1.0, {{kY, 2}})}),
      Poly({Monomial(1e7), Monomial(2.0, {{kX, 3}}),
            Monomial(0.5, {{kX, 1}, {kY, 1}})}),
  };
  int split = 0;
  for (int i = 0; i < 600; ++i) {
    const Polynomial& p = polys[static_cast<size_t>(i) % polys.size()];
    const std::vector<VarId> vars = p.Variables();
    Vector values = {rng.Uniform(0.5, 80.0), rng.Uniform(0.5, 80.0)};
    const VarId item = vars[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(vars.size()) - 1))];
    const double step =
        (i % 2 == 0) ? std::ldexp(1e-6, static_cast<int>(rng.UniformInt(0, 40)))
                     : rng.Uniform(1e-7, 10.0);
    const double drift = ReferenceDrift(p, values, item, step);
    if (!(drift > 0.0)) continue;
    // Every fourth budget is one double above the drift instead, so a
    // doubling point can be the last point whose drift is below B.
    const double budget =
        (i % 4 == 0) ? std::nextafter(drift, 2.0 * drift) : drift;
    // k ∈ {1, 2}, so qab / k gives back exactly this budget.
    const double qab = budget * static_cast<double>(vars.size());
    ASSERT_EQ(qab / static_cast<double>(vars.size()), budget);
    sweep.Check(PolynomialQuery{0, p, qab}, values);
    // The point just before the step no longer reaches the budget only when
    // the two tests really part there.
    if (ReferenceDrift(p, values, item, std::nextafter(step, 0.0)) == drift) {
      ++split;
    }
  }
  EXPECT_GE(sweep.cases, 500);
  EXPECT_GT(split, 50);  // the drift equals B over more than one point
  EXPECT_GT(sweep.rescaled, 0);
  EXPECT_GT(sweep.unscaled, 0);
}

TEST(BaselineExactnessTest, ThresholdsBelowTheFirstStep) {
  // Steep items and small budgets put the last fitting step below 1e-6,
  // so the doubling never runs; below 2⁻³⁰·1e-6 (values near 1, where one
  // ulp of V already overshoots) the bisection is replayed, not skipped.
  OracleSweep sweep;
  Rng rng(31);
  for (int i = 0; i < 300; ++i) {
    const double coef = std::ldexp(1.0, static_cast<int>(rng.UniformInt(10, 70)));
    const Polynomial p =
        (i % 3 == 0) ? Poly({Monomial(coef, {{kX, 1}})})
        : (i % 3 == 1)
            ? Poly({Monomial(coef, {{kX, 2}}), Monomial(1.0, {{kY, 1}})})
            : Poly({Monomial(coef, {{kX, 1}, {kY, 1}})});
    const Vector values = {rng.Uniform(0.25, 4.0), rng.Uniform(0.25, 4.0)};
    const double qab = p.Evaluate(values) * std::ldexp(1.0, -static_cast<int>(
                                                          rng.UniformInt(20, 60)));
    sweep.Check(PolynomialQuery{0, p, qab}, values);
  }
  EXPECT_EQ(sweep.cases, 300);
}

TEST(BaselineExactnessTest, DoublingCapAndNearZeroSlopes) {
  // Items whose slope at V is close to zero: tiny coefficients, or a high
  // power of a small value. The first Newton point lands far past the
  // doubling's reach; some drifts never reach the budget before the 1e12
  // cap, others reach it on the way there.
  OracleSweep sweep;
  Rng rng(4);
  int capped = 0;
  for (int i = 0; i < 300; ++i) {
    const double tiny =
        std::ldexp(1.0, -static_cast<int>(rng.UniformInt(20, 120)));
    const Polynomial p =
        (i % 3 == 0)
            ? Poly({Monomial(tiny, {{kZ, 1}}), Monomial(1.0, {{kX, 1}, {kY, 1}})})
        : (i % 3 == 1)
            ? Poly({Monomial(tiny, {{kZ, 3}}), Monomial(2.0, {{kX, 1}})})
            : Poly({Monomial(1.0, {{kZ, 5}}), Monomial(1.0, {{kX, 1}, {kY, 1}})});
    const Vector values = {rng.Uniform(1.0, 60.0), rng.Uniform(1.0, 60.0),
                           (i % 3 == 2) ? rng.Uniform(1e-6, 1e-3)
                                        : rng.Uniform(1.0, 60.0)};
    const double qab = rng.Uniform(0.5, 20.0);
    const PolynomialQuery q{0, p, qab};
    sweep.Check(q, values);
    auto d = SolveWsDab(q, values);
    ASSERT_TRUE(d.ok());
    if (d->primary[static_cast<size_t>(d->IndexOf(kZ))] > 1e11) ++capped;
  }
  EXPECT_EQ(sweep.cases, 300);
  EXPECT_GT(capped, 0);
  EXPECT_LT(capped, 300);
}

TEST(BaselineExactnessTest, HigherPowers) {
  // Exponents 3–5, alone and mixed with cross terms: strongly curved
  // drifts, where the Newton steps rather than one step find the point.
  OracleSweep sweep;
  Rng rng(5);
  const std::vector<Polynomial> polys = {
      Poly({Monomial(1.0, {{kX, 3}})}),
      Poly({Monomial(0.5, {{kX, 4}, {kY, 1}})}),
      Poly({Monomial(2.0, {{kX, 5}})}),
      Poly({Monomial(1.0, {{kX, 3}, {kY, 2}}), Monomial(3.0, {{kZ, 5}})}),
      Poly({Monomial(1.0, {{kX, 1}, {kY, 4}}), Monomial(0.25, {{kY, 3}, {kZ, 1}}),
            Monomial(7.0, {{kX, 1}})}),
  };
  for (int i = 0; i < 500; ++i) {
    const Polynomial& p = polys[static_cast<size_t>(i) % polys.size()];
    const Vector values = {rng.Uniform(0.5, 40.0), rng.Uniform(0.5, 40.0),
                           rng.Uniform(0.5, 40.0)};
    const double qab = p.Evaluate(values) *
                       std::pow(10.0, rng.Uniform(-9.0, 1.0));
    sweep.Check(PolynomialQuery{0, p, qab}, values);
  }
  EXPECT_EQ(sweep.cases, 500);
  EXPECT_GT(sweep.rescaled, 0);
  EXPECT_GT(sweep.unscaled, 0);
}

/// The bisection BisectToLast stands for, run for all 100 halvings.
double FullBisection(double hi, double last) {
  double lo = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= last) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TEST(BaselineExactnessTest, DirectResultEqualsTheFullBisection) {
  // BisectToLast returns `last` without halving when hi fails and last ≥
  // 2⁻³⁰·hi; elsewhere it replays the halvings. Both must equal all 100
  // halvings, in particular around the 2⁻³⁰ boundary and next to hi.
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int direct = 0;
  int cases = 0;
  auto check = [&](double hi, double last) {
    ++cases;
    if (last < hi && last >= std::ldexp(hi, -30)) ++direct;
    ASSERT_EQ(std::bit_cast<uint64_t>(BisectToLast(hi, last)),
              std::bit_cast<uint64_t>(FullBisection(hi, last)))
        << "hi " << hi << " last " << last;
  };
  for (int i = 0; i < 4000; ++i) {
    const double hi = (i % 4 == 0) ? 1.0
                      : (i % 4 == 1)
                          ? std::ldexp(1e-6, static_cast<int>(rng() % 61))
                          : std::ldexp(1.0 + unit(rng), static_cast<int>(rng() % 80) - 40);
    const double edge = std::ldexp(hi, -30);
    check(hi, hi * unit(rng));
    check(hi, std::ldexp(hi, -static_cast<int>(rng() % 64)) * (0.5 + unit(rng)));
    check(hi, (i % 2 == 0) ? edge : std::nextafter(edge, 0.0));
    check(hi, std::nextafter(hi, 0.0));
    check(hi, (i % 3 == 0) ? hi : hi * (1.0 + unit(rng)));  // hi fits
  }
  check(1.0, 0.0);
  check(1e-6, std::numeric_limits<double>::denorm_min());
  EXPECT_GE(cases, 10000);
  EXPECT_GT(direct, 5000);
  EXPECT_GT(cases - direct, 3000);
}

}  // namespace
}  // namespace polydab::core
