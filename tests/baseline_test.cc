#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

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

}  // namespace
}  // namespace polydab::core
