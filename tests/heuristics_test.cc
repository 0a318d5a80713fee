#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/heuristics.h"

namespace polydab::core {
namespace {

class HeuristicsTest : public ::testing::Test {
 protected:
  VariableRegistry reg_;
  VarId x_ = reg_.Intern("x");
  VarId y_ = reg_.Intern("y");
  VarId u_ = reg_.Intern("u");
  VarId v_ = reg_.Intern("v");

  PolynomialQuery Q(const std::string& s, double qab) {
    auto r = Polynomial::Parse(s, &reg_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return PolynomialQuery{0, *r, qab};
  }

  Vector Values() { return {10.0, 8.0, 6.0, 5.0}; }
  Vector Rates() { return {1.0, 0.5, 2.0, 1.5}; }
};

TEST_F(HeuristicsTest, PpqPassesThroughDirectly) {
  // No negative part: both heuristics reduce to a plain Dual-DAB solve.
  PolynomialQuery q = Q("x*y", 5.0);
  auto hh = SolveGeneralPq(q, Values(), Rates(),
                           GeneralPqHeuristic::kHalfAndHalf);
  auto ds = SolveGeneralPq(q, Values(), Rates(),
                           GeneralPqHeuristic::kDifferentSum);
  ASSERT_TRUE(hh.ok());
  ASSERT_TRUE(ds.ok());
  for (size_t i = 0; i < hh->vars.size(); ++i) {
    EXPECT_NEAR(hh->primary[i], ds->primary[i], 1e-5 * ds->primary[i]);
  }
}

TEST_F(HeuristicsTest, ConstantTermsIgnored) {
  PolynomialQuery q = Q("x*y - 3", 5.0);
  auto d = SolveGeneralPq(q, Values(), Rates(),
                          GeneralPqHeuristic::kDifferentSum);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->vars.size(), 2u);
}

TEST_F(HeuristicsTest, RejectsZeroPolynomial) {
  PolynomialQuery q = Q("x*y - x*y", 5.0);
  EXPECT_FALSE(SolveGeneralPq(q, Values(), Rates(),
                              GeneralPqHeuristic::kDifferentSum)
                   .ok());
}

TEST_F(HeuristicsTest, HalfAndHalfCoversBothParts) {
  // Arbitrage-style independent query x*y - u*v.
  PolynomialQuery q = Q("x*y - u*v", 4.0);
  auto d = SolveGeneralPq(q, Values(), Rates(),
                          GeneralPqHeuristic::kHalfAndHalf);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->vars.size(), 4u);
  // Each sub-polynomial alone must respect B/2 at its own worst corner.
  Vector shifted = Values();
  shifted[0] += d->primary[d->IndexOf(x_)] + d->secondary[d->IndexOf(x_)];
  shifted[1] += d->primary[d->IndexOf(y_)] + d->secondary[d->IndexOf(y_)];
  Vector mid = Values();
  mid[0] += d->secondary[d->IndexOf(x_)];
  mid[1] += d->secondary[d->IndexOf(y_)];
  EXPECT_LE(shifted[0] * shifted[1] - mid[0] * mid[1],
            2.0 * (1.0 + 1e-4));
}

TEST_F(HeuristicsTest, DifferentSumSharedItems) {
  // Dependent sub-polynomials (x in both): DS must still give one bound
  // per item covering the union.
  PolynomialQuery q = Q("x*y - x*u", 4.0);
  auto d = SolveGeneralPq(q, Values(), Rates(),
                          GeneralPqHeuristic::kDifferentSum);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->vars.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(d->primary[i], 0.0);
    EXPECT_GE(d->secondary[i], d->primary[i]);
  }
}

TEST_F(HeuristicsTest, Claim1DifferentSumBoundsDifference) {
  // Claim 1: DABs valid for Q' = P1+P2 : B are valid for Q = P1-P2 : B.
  // Verify numerically: the dual condition value of the difference query
  // at the DS assignment never exceeds the QAB.
  PolynomialQuery q = Q("2*x*y - u*v", 6.0);
  auto d = SolveGeneralPq(q, Values(), Rates(),
                          GeneralPqHeuristic::kDifferentSum);
  ASSERT_TRUE(d.ok());
  // Worst drift of P1 - P2: P1 items up by c+b from anchors at +c... the
  // magnitude is bounded by the drift of P1 + P2 which the GP constrained
  // to B. Sample random excursions inside the validity range.
  Rng rng(42);
  const Vector base_values = Values();
  for (int trial = 0; trial < 200; ++trial) {
    Vector anchor = base_values, moved;
    for (size_t i = 0; i < d->vars.size(); ++i) {
      const size_t var = static_cast<size_t>(d->vars[i]);
      anchor[var] += rng.Uniform(-1.0, 1.0) * d->secondary[i];
      if (anchor[var] <= 0) anchor[var] = base_values[var];
    }
    moved = anchor;
    for (size_t i = 0; i < d->vars.size(); ++i) {
      const size_t var = static_cast<size_t>(d->vars[i]);
      moved[var] += rng.Uniform(-1.0, 1.0) * d->primary[i];
      if (moved[var] <= 0) moved[var] = anchor[var];
    }
    EXPECT_LE(std::fabs(q.p.Evaluate(moved) - q.p.Evaluate(anchor)),
              q.qab * (1.0 + 1e-4));
  }
}

TEST_F(HeuristicsTest, Claim2NearOptimalForIndependentQueries) {
  // Claim 2(B): for independent P1, P2 with DABs small relative to values
  // (alpha = max_i c_i/V_i), the DS cost is within 1/(1-alpha)^d of the
  // true optimum of P1-P2. The optimum is unknown in general, but it is
  // lower-bounded by the optimum of max(P1, P2) alone... use the cost of
  // DS vs the cost of HH as a sanity envelope instead, plus the formal
  // bound: cost(DS on P1+P2) >= optimal cost of P1-P2 >= cost_DS*(1-a)^d.
  PolynomialQuery q = Q("x*y - u*v", 1.0);  // small QAB -> small DABs
  Vector big_values = {100.0, 110.0, 120.0, 130.0};
  auto ds = SolveGeneralPq(q, big_values, Rates(),
                           GeneralPqHeuristic::kDifferentSum);
  ASSERT_TRUE(ds.ok());
  double alpha = 0.0;
  for (size_t i = 0; i < ds->vars.size(); ++i) {
    alpha = std::max(
        alpha, ds->secondary[i] /
                   big_values[static_cast<size_t>(ds->vars[i])]);
  }
  EXPECT_LT(alpha, 0.05);  // the small-DAB regime of Claim 2
  // HH solves each part at B/2: its cost upper-bounds the optimum only
  // loosely, but DS must not be wildly worse than HH in this regime.
  auto hh = SolveGeneralPq(q, big_values, Rates(),
                           GeneralPqHeuristic::kHalfAndHalf);
  ASSERT_TRUE(hh.ok());
  auto cost = [&](const QueryDabs& d) {
    double c = 0.0;
    for (size_t i = 0; i < d.vars.size(); ++i) {
      c += Rates()[static_cast<size_t>(d.vars[i])] / d.primary[i];
    }
    return c + 5.0 * d.recompute_rate;
  };
  // DS sees the whole QAB at once and should beat HH's blind 50/50 split.
  EXPECT_LE(cost(*ds), cost(*hh) * (1.0 + 1e-6));
}

TEST_F(HeuristicsTest, SingleDabSubSolverWorksThroughCallback) {
  // The callback form lets the heuristics run on any PPQ sub-solver.
  PolynomialQuery q = Q("x*y - u*v", 4.0);
  int calls = 0;
  PpqSolver fake = [&calls](const PolynomialQuery& sub,
                            const QueryDabs*) -> Result<QueryDabs> {
    ++calls;
    QueryDabs d;
    d.vars = sub.p.Variables();
    d.primary.assign(d.vars.size(), 0.25);
    d.secondary.assign(d.vars.size(), 0.5);
    d.recompute_rate = 1.0;
    return d;
  };
  auto d = SolveGeneralPq(q, GeneralPqHeuristic::kHalfAndHalf, fake);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(calls, 2);  // one per sub-polynomial
  EXPECT_DOUBLE_EQ(d->recompute_rate, 2.0);  // rates add under HH
  auto d2 = SolveGeneralPq(q, GeneralPqHeuristic::kDifferentSum, fake);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(calls, 3);  // single joint solve
}

// Property sweep: random general PQs, both heuristics, assignment always
// respects the QAB inside the validity range.
struct HeuristicCase {
  uint64_t seed;
  GeneralPqHeuristic heuristic;
  bool dependent;  // share items between P1 and P2
};

// The case's ctest name: gtest_discover_tests names a parameterized case
// by its printed value, and gtest's default print of a struct dumps its
// bytes, padding included.
void PrintTo(const HeuristicCase& c, std::ostream* os) {
  *os << "seed" << c.seed
      << (c.heuristic == GeneralPqHeuristic::kHalfAndHalf ? "_hh" : "_ds")
      << (c.dependent ? "_dependent" : "_independent");
}

class HeuristicProperty : public ::testing::TestWithParam<HeuristicCase> {};

TEST_P(HeuristicProperty, DriftWithinQab) {
  const auto param = GetParam();
  Rng rng(param.seed);
  VariableRegistry reg;
  const int n = param.dependent ? 4 : 8;
  std::vector<VarId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(reg.Intern("d" + std::to_string(i)));

  auto random_part = [&](int lo, int hi) {
    std::vector<Monomial> terms;
    const int t = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int j = 0; j < t; ++j) {
      VarId a = ids[static_cast<size_t>(rng.UniformInt(lo, hi))];
      VarId b = ids[static_cast<size_t>(rng.UniformInt(lo, hi))];
      terms.emplace_back(rng.Uniform(1.0, 50.0),
                         std::vector<std::pair<VarId, int>>{{a, 1}, {b, 1}});
    }
    return Polynomial(std::move(terms));
  };
  Polynomial p1 = random_part(0, param.dependent ? n - 1 : n / 2 - 1);
  Polynomial p2 = random_part(param.dependent ? 0 : n / 2, n - 1);
  PolynomialQuery q{0, p1 - p2, 0.0};
  if (q.p.IsZero()) return;  // degenerate random draw

  Vector values(reg.size()), rates(reg.size());
  for (size_t i = 0; i < reg.size(); ++i) {
    values[i] = rng.Uniform(10.0, 100.0);
    rates[i] = rng.Uniform(0.1, 2.0);
  }
  q.qab = 0.02 * (p1.Evaluate(values) + p2.Evaluate(values));

  auto d = SolveGeneralPq(q, values, rates, param.heuristic);
  ASSERT_TRUE(d.ok()) << d.status().ToString();

  for (int trial = 0; trial < 50; ++trial) {
    Vector anchor = values, moved;
    for (size_t i = 0; i < d->vars.size(); ++i) {
      const size_t var = static_cast<size_t>(d->vars[i]);
      anchor[var] += rng.Uniform(-1.0, 1.0) * d->secondary[i];
      if (anchor[var] <= 0) anchor[var] = values[var];
    }
    moved = anchor;
    for (size_t i = 0; i < d->vars.size(); ++i) {
      const size_t var = static_cast<size_t>(d->vars[i]);
      moved[var] += rng.Uniform(-1.0, 1.0) * d->primary[i];
      if (moved[var] <= 0) moved[var] = anchor[var];
    }
    EXPECT_LE(std::fabs(q.p.Evaluate(moved) - q.p.Evaluate(anchor)),
              q.qab * (1.0 + 1e-4));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGeneralPqs, HeuristicProperty,
    ::testing::Values(
        HeuristicCase{1, GeneralPqHeuristic::kHalfAndHalf, false},
        HeuristicCase{2, GeneralPqHeuristic::kHalfAndHalf, true},
        HeuristicCase{3, GeneralPqHeuristic::kDifferentSum, false},
        HeuristicCase{4, GeneralPqHeuristic::kDifferentSum, true},
        HeuristicCase{5, GeneralPqHeuristic::kHalfAndHalf, false},
        HeuristicCase{6, GeneralPqHeuristic::kDifferentSum, false},
        HeuristicCase{7, GeneralPqHeuristic::kHalfAndHalf, true},
        HeuristicCase{8, GeneralPqHeuristic::kDifferentSum, true}));

}  // namespace
}  // namespace polydab::core
