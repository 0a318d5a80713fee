#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dual_dab.h"
#include "core/optimal_refresh.h"

namespace polydab::core {
namespace {

class DualDabTest : public ::testing::Test {
 protected:
  VariableRegistry reg_;
  VarId x_ = reg_.Intern("x");
  VarId y_ = reg_.Intern("y");

  PolynomialQuery Q(const std::string& s, double qab) {
    auto r = Polynomial::Parse(s, &reg_);
    EXPECT_TRUE(r.ok());
    return PolynomialQuery{0, *r, qab};
  }

  static double Drift(const PolynomialQuery& q, const Vector& values,
                      const QueryDabs& d) {
    // P(V+c+b) - P(V+c): the worst query drift while the assignment is
    // considered valid.
    Vector top = values, mid = values;
    for (size_t i = 0; i < d.vars.size(); ++i) {
      const size_t v = static_cast<size_t>(d.vars[i]);
      mid[v] += d.secondary[i];
      top[v] += d.secondary[i] + d.primary[i];
    }
    return q.p.Evaluate(top) - q.p.Evaluate(mid);
  }
};

TEST_F(DualDabTest, SolutionIsValidOverSecondaryRange) {
  PolynomialQuery q = Q("x*y", 5.0);
  Vector values = {2.0, 2.0};
  DualDabParams params;
  params.mu = 1.0;
  auto d = SolveDualDab(q, values, {1.0, 1.0}, params);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  for (size_t i = 0; i < d->vars.size(); ++i) {
    EXPECT_GT(d->primary[i], 0.0);
    EXPECT_GE(d->secondary[i], d->primary[i]);
  }
  EXPECT_LE(Drift(q, values, *d), 5.0 * (1.0 + 1e-4));
}

TEST_F(DualDabTest, PrimaryTighterThanOptimalRefresh) {
  // The dual formulation buys validity range by tightening the primary
  // DABs relative to the refresh-optimal single DABs (§III-A.2's example:
  // b = 0.5 instead of 1).
  PolynomialQuery q = Q("x*y", 5.0);
  Vector values = {2.0, 2.0};
  auto single = SolveOptimalRefresh(q, values, {1.0, 1.0});
  ASSERT_TRUE(single.ok());
  DualDabParams params;
  params.mu = 5.0;
  auto dual = SolveDualDab(q, values, {1.0, 1.0}, params);
  ASSERT_TRUE(dual.ok());
  for (size_t i = 0; i < dual->vars.size(); ++i) {
    EXPECT_LT(dual->primary[i], single->primary[i]);
    EXPECT_GT(dual->secondary[i], single->primary[i]);
  }
}

TEST_F(DualDabTest, RecomputeRateIsMaxOverItems) {
  DualDabParams params;
  params.mu = 2.0;
  Vector rates = {3.0, 0.5};
  auto d = SolveDualDab(Q("x*y", 5.0), {2.0, 2.0}, rates, params);
  ASSERT_TRUE(d.ok());
  double max_rate = 0.0;
  for (size_t i = 0; i < d->vars.size(); ++i) {
    max_rate = std::max(
        max_rate, rates[static_cast<size_t>(d->vars[i])] / d->secondary[i]);
  }
  // R is driven to the binding recompute constraint at the optimum.
  EXPECT_NEAR(d->recompute_rate, max_rate, max_rate * 1e-3);
}

TEST_F(DualDabTest, LargerMuBuysFewerRecomputations) {
  // §III-A.3 "Effect of mu": as mu increases, primaries tighten, the
  // validity range grows, and the modeled recompute rate R drops.
  PolynomialQuery q = Q("x*y", 5.0);
  Vector values = {2.0, 2.0};
  Vector rates = {1.0, 1.0};
  double prev_r = 1e300;
  double prev_b = 1e300;
  for (double mu : {1.0, 2.0, 5.0, 10.0, 20.0}) {
    DualDabParams params;
    params.mu = mu;
    auto d = SolveDualDab(q, values, rates, params);
    ASSERT_TRUE(d.ok());
    EXPECT_LT(d->recompute_rate, prev_r);
    EXPECT_LT(d->primary[0], prev_b);
    prev_r = d->recompute_rate;
    prev_b = d->primary[0];
  }
}

TEST_F(DualDabTest, MatchesBruteForceOnSymmetricProblem) {
  // Symmetric instance: by symmetry the optimum has bx=by=b, cx=cy=c,
  // R = lambda/c. Total cost 2*lambda/b + mu*lambda/c with constraint
  // (V+c)*b*2 + b^2 = B. Scan c densely, solve b on the boundary, compare.
  const double kV = 2.0, kB = 5.0, kLambda = 1.0, kMu = 5.0;
  double best = 1e300;
  for (int i = 1; i <= 2000; ++i) {
    const double c = 6.0 * i / 2000.0;
    // 2(V+c)b + b^2 = B -> b = -(V+c) + sqrt((V+c)^2 + B).
    const double vc = kV + c;
    const double b = -vc + std::sqrt(vc * vc + kB);
    if (b <= 0 || b > c) continue;
    best = std::min(best, 2.0 * kLambda / b + kMu * kLambda / c);
  }
  DualDabParams params;
  params.mu = kMu;
  auto d = SolveDualDab(Q("x*y", kB), {kV, kV}, {kLambda, kLambda}, params);
  ASSERT_TRUE(d.ok());
  const double cost = kLambda / d->primary[0] + kLambda / d->primary[1] +
                      kMu * d->recompute_rate;
  EXPECT_NEAR(cost, best, best * 2e-3);
}

TEST_F(DualDabTest, WarmStartAgreesWithCold) {
  PolynomialQuery q = Q("3*x*y + x^2", 4.0);
  Vector values = {3.0, 6.0};
  Vector rates = {0.7, 1.3};
  DualDabParams params;
  params.mu = 3.0;
  auto cold = SolveDualDab(q, values, rates, params);
  ASSERT_TRUE(cold.ok());
  // Perturb values slightly, as after a secondary violation, and warm start.
  Vector moved = {3.2, 5.9};
  auto warm = SolveDualDab(q, moved, rates, params, &*cold);
  ASSERT_TRUE(warm.ok());
  auto fresh = SolveDualDab(q, moved, rates, params);
  ASSERT_TRUE(fresh.ok());
  for (size_t i = 0; i < warm->vars.size(); ++i) {
    EXPECT_NEAR(warm->primary[i], fresh->primary[i],
                1e-4 * fresh->primary[i]);
  }
}

TEST_F(DualDabTest, RandomWalkModel) {
  DualDabParams params;
  params.mu = 5.0;
  params.ddm = DataDynamicsModel::kRandomWalk;
  PolynomialQuery q = Q("x*y", 5.0);
  auto d = SolveDualDab(q, {2.0, 2.0}, {1.0, 1.0}, params);
  ASSERT_TRUE(d.ok());
  EXPECT_LE(Drift(q, {2.0, 2.0}, *d), 5.0 * (1.0 + 1e-4));
  // R binds against lambda^2/c^2 under the random-walk ddm.
  double max_rate = 0.0;
  for (size_t i = 0; i < d->vars.size(); ++i) {
    max_rate = std::max(max_rate, 1.0 / (d->secondary[i] * d->secondary[i]));
  }
  EXPECT_NEAR(d->recompute_rate, max_rate, max_rate * 1e-3);
}

TEST_F(DualDabTest, RejectsNonPositiveMu) {
  DualDabParams params;
  params.mu = 0.0;
  EXPECT_FALSE(SolveDualDab(Q("x*y", 5.0), {2, 2}, {1, 1}, params).ok());
}


TEST_F(DualDabTest, LinearItemDoesNotUnboundTheProgram) {
  // Regression: an item that appears only linearly cancels out of the
  // dual validity condition, leaving its secondary DAB with no upper
  // pressure; the epsilon*c regularizer must keep the GP bounded.
  VariableRegistry reg;
  auto p = Polynomial::Parse("x^2*y + u", &reg);
  ASSERT_TRUE(p.ok());
  PolynomialQuery q{0, *p, 3.0};
  Vector values = {10.0, 8.0, 6.0};
  Vector rates = {1.0, 0.5, 2.0};
  DualDabParams params;
  params.mu = 5.0;
  auto d = SolveDualDab(q, values, rates, params);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  for (size_t i = 0; i < d->vars.size(); ++i) {
    EXPECT_GT(d->primary[i], 0.0);
    EXPECT_GE(d->secondary[i], d->primary[i]);
    EXPECT_LT(d->secondary[i], 1e6);  // finite, not runaway
  }
  // Pure LAQ-with-product mix still meets the condition.
  Vector top = values, mid = values;
  for (size_t i = 0; i < d->vars.size(); ++i) {
    const size_t v = static_cast<size_t>(d->vars[i]);
    mid[v] += d->secondary[i];
    top[v] += d->secondary[i] + d->primary[i];
  }
  EXPECT_LE(q.p.Evaluate(top) - q.p.Evaluate(mid), 3.0 * (1.0 + 1e-4));
}

// Property sweep over random PPQs and mus: feasibility of the returned
// assignment is the safety-critical invariant (Condition 1 of §I-B).
struct DualCase {
  uint64_t seed;
  double mu;
};

// The case's ctest name: gtest_discover_tests names a parameterized case
// by its printed value, and gtest's default print of a struct dumps its
// bytes, padding included.
void PrintTo(const DualCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_mu" << c.mu;
}

class DualDabProperty : public ::testing::TestWithParam<DualCase> {};

TEST_P(DualDabProperty, AssignmentAlwaysValid) {
  const auto [seed, mu] = GetParam();
  Rng rng(seed);
  VariableRegistry reg;
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 6));
  std::vector<VarId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(reg.Intern("v" + std::to_string(i)));
  std::vector<Monomial> terms;
  const int t = 1 + static_cast<int>(rng.UniformInt(0, 4));
  for (int j = 0; j < t; ++j) {
    VarId a = ids[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    VarId b = ids[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    terms.emplace_back(rng.Uniform(1.0, 100.0),
                       std::vector<std::pair<VarId, int>>{{a, 1}, {b, 1}});
  }
  PolynomialQuery q{0, Polynomial(std::move(terms)), 0.0};
  Vector values(reg.size()), rates(reg.size());
  for (size_t i = 0; i < reg.size(); ++i) {
    values[i] = rng.Uniform(5.0, 100.0);
    rates[i] = rng.Uniform(0.05, 2.0);
  }
  q.qab = 0.01 * q.p.Evaluate(values);

  DualDabParams params;
  params.mu = mu;
  auto d = SolveDualDab(q, values, rates, params);
  ASSERT_TRUE(d.ok()) << d.status().ToString();

  // Worst-case drift within the validity range must respect the QAB; probe
  // the analytic worst corner and random points inside the range.
  Vector top = values, mid = values;
  for (size_t i = 0; i < d->vars.size(); ++i) {
    const size_t v = static_cast<size_t>(d->vars[i]);
    EXPECT_GE(d->secondary[i], d->primary[i]);
    mid[v] += d->secondary[i];
    top[v] += d->secondary[i] + d->primary[i];
  }
  EXPECT_LE(q.p.Evaluate(top) - q.p.Evaluate(mid), q.qab * (1.0 + 1e-4));

  for (int trial = 0; trial < 10; ++trial) {
    Vector base = values, drifted;
    for (size_t i = 0; i < d->vars.size(); ++i) {
      const size_t v = static_cast<size_t>(d->vars[i]);
      base[v] = values[v] + rng.Uniform(-1.0, 1.0) * d->secondary[i];
      if (base[v] <= 0) base[v] = values[v];
    }
    drifted = base;
    for (size_t i = 0; i < d->vars.size(); ++i) {
      const size_t v = static_cast<size_t>(d->vars[i]);
      drifted[v] = base[v] + rng.Uniform(-1.0, 1.0) * d->primary[i];
      if (drifted[v] <= 0) drifted[v] = base[v];
    }
    EXPECT_LE(std::fabs(q.p.Evaluate(drifted) - q.p.Evaluate(base)),
              q.qab * (1.0 + 1e-4));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMus, DualDabProperty,
    ::testing::Values(DualCase{1, 1}, DualCase{2, 1}, DualCase{3, 5},
                      DualCase{4, 5}, DualCase{5, 10}, DualCase{6, 10},
                      DualCase{7, 20}, DualCase{8, 2}, DualCase{9, 50},
                      DualCase{10, 5}));

}  // namespace
}  // namespace polydab::core
