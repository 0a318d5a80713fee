// PlanQueryParts, the planner the simulator runs at t = 0 and on every
// registration: method routing, the §III-B general-query heuristics and
// the paper's Claims 1 and 2 for Different Sum, all on the parts API.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/planner.h"

namespace polydab::core {
namespace {

/// The filters a plan's parts leave on each item once the EQI merge takes
/// the per-item minimum over the parts that assign it (primary and
/// secondary alike). Either part's range escaping forces a recompute, so
/// the parts' modeled rates add.
QueryDabs MergedView(const QueryPlan& plan) {
  QueryDabs out;
  for (const PlanPart& part : plan.parts) {
    for (VarId v : part.dabs.vars) {
      if (out.IndexOf(v) < 0) out.vars.push_back(v);
    }
    out.recompute_rate += part.dabs.recompute_rate;
  }
  std::sort(out.vars.begin(), out.vars.end());
  out.primary.assign(out.vars.size(), INFINITY);
  out.secondary.assign(out.vars.size(), INFINITY);
  for (const PlanPart& part : plan.parts) {
    for (size_t i = 0; i < part.dabs.vars.size(); ++i) {
      const size_t k = static_cast<size_t>(out.IndexOf(part.dabs.vars[i]));
      out.primary[k] = std::min(out.primary[k], part.dabs.primary[i]);
      out.secondary[k] = std::min(out.secondary[k], part.dabs.secondary[i]);
    }
  }
  return out;
}

/// Sampled drift check: from anchors inside the merged secondary ranges,
/// moves inside the merged primary ranges never drift \p q past its QAB.
void ExpectDriftWithinQab(const PolynomialQuery& q, const QueryDabs& d,
                          const Vector& values, Rng& rng, int trials) {
  for (int trial = 0; trial < trials; ++trial) {
    Vector anchor = values, moved;
    for (size_t i = 0; i < d.vars.size(); ++i) {
      const size_t var = static_cast<size_t>(d.vars[i]);
      anchor[var] += rng.Uniform(-1.0, 1.0) * d.secondary[i];
      if (anchor[var] <= 0) anchor[var] = values[var];
    }
    moved = anchor;
    for (size_t i = 0; i < d.vars.size(); ++i) {
      const size_t var = static_cast<size_t>(d.vars[i]);
      moved[var] += rng.Uniform(-1.0, 1.0) * d.primary[i];
      if (moved[var] <= 0) moved[var] = anchor[var];
    }
    EXPECT_LE(std::fabs(q.p.Evaluate(moved) - q.p.Evaluate(anchor)),
              q.qab * (1.0 + 1e-4));
  }
}

class PlannerFixture : public ::testing::Test {
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

  Result<QueryPlan> Plan(const PolynomialQuery& q, GeneralPqHeuristic h,
                         AssignmentMethod m = AssignmentMethod::kDualDab) {
    PlannerConfig config;
    config.method = m;
    config.heuristic = h;
    return PlanQueryParts(q, Values(), Rates(), config);
  }
};

using PlannerTest = PlannerFixture;
using HeuristicsTest = PlannerFixture;

TEST_F(PlannerTest, RoutesLaqToClosedForm) {
  for (AssignmentMethod m :
       {AssignmentMethod::kOptimalRefresh, AssignmentMethod::kDualDab,
        AssignmentMethod::kWsDab}) {
    auto plan = Plan(Q("x + y", 4.0), GeneralPqHeuristic::kHalfAndHalf, m);
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->parts.size(), 1u);
    const QueryDabs& d = plan->parts[0].dabs;
    EXPECT_TRUE(d.never_stale);
    EXPECT_DOUBLE_EQ(d.recompute_rate, 0.0);  // LAQ: never recomputed
  }
}

TEST_F(PlannerTest, DualMethodGivesWiderSecondary) {
  PlannerConfig config;
  config.method = AssignmentMethod::kDualDab;
  config.dual.mu = 10.0;
  auto plan = PlanQueryParts(Q("x*y", 2.0), Values(), Rates(), config);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->parts.size(), 1u);
  const QueryDabs& d = plan->parts[0].dabs;
  for (size_t i = 0; i < d.vars.size(); ++i) {
    EXPECT_GT(d.secondary[i], d.primary[i]);
  }
}

TEST_F(PlannerTest, SingleDabMethodsReportSecondaryEqualPrimary) {
  for (AssignmentMethod m :
       {AssignmentMethod::kOptimalRefresh, AssignmentMethod::kWsDab}) {
    auto plan = Plan(Q("x*y", 2.0), GeneralPqHeuristic::kDifferentSum, m);
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->parts.size(), 1u);
    EXPECT_EQ(plan->parts[0].dabs.primary, plan->parts[0].dabs.secondary);
  }
}

TEST_F(PlannerTest, GeneralQueryThroughHeuristics) {
  // HH: one part per sign, each a PPQ at B/2. DS: one part, P1 + P2 at B.
  const PolynomialQuery q = Q("x*y - u*v", 4.0);
  auto hh = Plan(q, GeneralPqHeuristic::kHalfAndHalf);
  ASSERT_TRUE(hh.ok()) << hh.status().ToString();
  ASSERT_EQ(hh->parts.size(), 2u);
  EXPECT_EQ(hh->parts[0].dabs.vars, (std::vector<VarId>{x_, y_}));
  EXPECT_EQ(hh->parts[1].dabs.vars, (std::vector<VarId>{u_, v_}));
  for (const PlanPart& part : hh->parts) {
    EXPECT_EQ(part.subquery.qab, 2.0);
    EXPECT_TRUE(part.subquery.p.IsPositiveCoefficient());
  }
  auto ds = Plan(q, GeneralPqHeuristic::kDifferentSum);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->parts.size(), 1u);
  EXPECT_EQ(ds->parts[0].subquery.qab, 4.0);
  EXPECT_TRUE(ds->parts[0].subquery.p.IsPositiveCoefficient());
  EXPECT_EQ(ds->parts[0].dabs.vars.size(), 4u);
}

TEST_F(PlannerTest, GeneralQueryWithSingleDabMethod) {
  // Single-DAB methods solve the heuristics' subqueries too: HH gives one
  // part per sign at B/2, DS one part at B, every part single-DAB.
  const PolynomialQuery q = Q("x*y - u*v", 4.0);
  for (AssignmentMethod m :
       {AssignmentMethod::kOptimalRefresh, AssignmentMethod::kWsDab}) {
    auto hh = Plan(q, GeneralPqHeuristic::kHalfAndHalf, m);
    ASSERT_TRUE(hh.ok()) << hh.status().ToString();
    ASSERT_EQ(hh->parts.size(), 2u);
    for (const PlanPart& part : hh->parts) {
      EXPECT_EQ(part.subquery.qab, 2.0);
      EXPECT_EQ(part.dabs.vars.size(), 2u);
      EXPECT_EQ(part.dabs.primary, part.dabs.secondary);
    }
    auto ds = Plan(q, GeneralPqHeuristic::kDifferentSum, m);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ASSERT_EQ(ds->parts.size(), 1u);
    EXPECT_EQ(ds->parts[0].subquery.qab, 4.0);
    EXPECT_EQ(ds->parts[0].dabs.vars.size(), 4u);
    EXPECT_EQ(ds->parts[0].dabs.primary, ds->parts[0].dabs.secondary);
  }
}

TEST_F(PlannerTest, RejectsZeroPolynomial) {
  auto r = Polynomial::Parse("x - x", &reg_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(PlanQueryParts({0, *r, 1.0}, Values(), Rates(),
                              PlannerConfig())
                   .ok());
}

TEST_F(HeuristicsTest, PpqPassesThroughDirectly) {
  // No negative part: both heuristics plan the query itself, at B.
  const PolynomialQuery q = Q("x*y", 5.0);
  auto hh = Plan(q, GeneralPqHeuristic::kHalfAndHalf);
  auto ds = Plan(q, GeneralPqHeuristic::kDifferentSum);
  ASSERT_TRUE(hh.ok());
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(hh->parts.size(), 1u);
  ASSERT_EQ(ds->parts.size(), 1u);
  EXPECT_EQ(hh->parts[0].subquery.qab, 5.0);
  const QueryDabs& dh = hh->parts[0].dabs;
  const QueryDabs& dd = ds->parts[0].dabs;
  ASSERT_EQ(dh.vars, dd.vars);
  for (size_t i = 0; i < dh.vars.size(); ++i) {
    EXPECT_NEAR(dh.primary[i], dd.primary[i], 1e-5 * dd.primary[i]);
  }
}

TEST_F(HeuristicsTest, SingleDabSubSolverWorksThroughCallback) {
  // The heuristics run any method as the sub-solver of their subqueries:
  // under HH each part is exactly that method's plan of its sub-polynomial
  // alone (one solve per sign) and the parts' rates add once merged; DS
  // makes a single joint solve of P1+P2. ReplanPart re-solves each part.
  const PolynomialQuery q = Q("x*y - u*v", 4.0);
  for (AssignmentMethod m :
       {AssignmentMethod::kOptimalRefresh, AssignmentMethod::kWsDab}) {
    PlannerConfig config;
    config.method = m;
    config.heuristic = GeneralPqHeuristic::kHalfAndHalf;
    auto hh = PlanQueryParts(q, Values(), Rates(), config);
    ASSERT_TRUE(hh.ok()) << hh.status().ToString();
    ASSERT_EQ(hh->parts.size(), 2u);
    for (const PlanPart& part : hh->parts) {
      auto alone = PlanQueryParts(part.subquery, Values(), Rates(), config);
      ASSERT_TRUE(alone.ok());
      ASSERT_EQ(alone->parts.size(), 1u);
      EXPECT_EQ(alone->parts[0].dabs.vars, part.dabs.vars);
      EXPECT_EQ(alone->parts[0].dabs.primary, part.dabs.primary);
      EXPECT_EQ(alone->parts[0].dabs.recompute_rate,
                part.dabs.recompute_rate);
      auto again = ReplanPart(part, Values(), Rates(), config);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->vars, part.dabs.vars);
      EXPECT_EQ(again->primary, again->secondary);
    }
    EXPECT_DOUBLE_EQ(MergedView(*hh).recompute_rate,
                     hh->parts[0].dabs.recompute_rate +
                         hh->parts[1].dabs.recompute_rate);
    config.heuristic = GeneralPqHeuristic::kDifferentSum;
    auto ds = PlanQueryParts(q, Values(), Rates(), config);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ASSERT_EQ(ds->parts.size(), 1u);
    auto joint =
        PlanQueryParts(ds->parts[0].subquery, Values(), Rates(), config);
    ASSERT_TRUE(joint.ok());
    ASSERT_EQ(joint->parts.size(), 1u);
    EXPECT_EQ(joint->parts[0].dabs.primary, ds->parts[0].dabs.primary);
  }
}

TEST_F(HeuristicsTest, ConstantTermsIgnored) {
  // A constant negative term shifts the value but not the drift: both
  // heuristics plan the positive part alone, at B.
  for (GeneralPqHeuristic h : {GeneralPqHeuristic::kHalfAndHalf,
                               GeneralPqHeuristic::kDifferentSum}) {
    auto plan = Plan(Q("x*y - 3", 5.0), h);
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->parts.size(), 1u);
    EXPECT_EQ(plan->parts[0].subquery.qab, 5.0);
    EXPECT_EQ(plan->parts[0].dabs.vars.size(), 2u);
  }
}

TEST_F(HeuristicsTest, RejectsZeroPolynomial) {
  for (GeneralPqHeuristic h : {GeneralPqHeuristic::kHalfAndHalf,
                               GeneralPqHeuristic::kDifferentSum}) {
    EXPECT_FALSE(Plan(Q("x*y - x*y", 5.0), h).ok());
  }
}

TEST_F(HeuristicsTest, HalfAndHalfCoversBothParts) {
  // Arbitrage-style independent query x*y - u*v.
  const PolynomialQuery q = Q("x*y - u*v", 4.0);
  auto plan = Plan(q, GeneralPqHeuristic::kHalfAndHalf);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->parts.size(), 2u);
  const QueryDabs d = MergedView(*plan);
  EXPECT_EQ(d.vars.size(), 4u);
  EXPECT_DOUBLE_EQ(d.recompute_rate, plan->parts[0].dabs.recompute_rate +
                                         plan->parts[1].dabs.recompute_rate);
  // Each sub-polynomial alone must respect B/2 at its own worst corner.
  Vector shifted = Values();
  shifted[0] += d.primary[d.IndexOf(x_)] + d.secondary[d.IndexOf(x_)];
  shifted[1] += d.primary[d.IndexOf(y_)] + d.secondary[d.IndexOf(y_)];
  Vector mid = Values();
  mid[0] += d.secondary[d.IndexOf(x_)];
  mid[1] += d.secondary[d.IndexOf(y_)];
  EXPECT_LE(shifted[0] * shifted[1] - mid[0] * mid[1],
            2.0 * (1.0 + 1e-4));
}

TEST_F(HeuristicsTest, DifferentSumSharedItems) {
  // Dependent sub-polynomials (x in both): DS must still give one bound
  // per item covering the union.
  auto plan = Plan(Q("x*y - x*u", 4.0), GeneralPqHeuristic::kDifferentSum);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->parts.size(), 1u);
  const QueryDabs& d = plan->parts[0].dabs;
  EXPECT_EQ(d.vars.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(d.primary[i], 0.0);
    EXPECT_GE(d.secondary[i], d.primary[i]);
  }
}

TEST_F(HeuristicsTest, Claim1DifferentSumBoundsDifference) {
  // Claim 1: DABs valid for Q' = P1+P2 : B are valid for Q = P1-P2 : B.
  // Sample random excursions inside the DS part's validity range: the
  // difference query never drifts past its QAB.
  const PolynomialQuery q = Q("2*x*y - u*v", 6.0);
  auto plan = Plan(q, GeneralPqHeuristic::kDifferentSum);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->parts.size(), 1u);
  Rng rng(42);
  ExpectDriftWithinQab(q, plan->parts[0].dabs, Values(), rng, 200);
}

TEST_F(HeuristicsTest, Claim2NearOptimalForIndependentQueries) {
  // Claim 2(B): for independent P1, P2 with DABs small relative to values
  // (alpha = max_i c_i/V_i), the DS cost is within 1/(1-alpha)^d of the
  // true optimum of P1-P2 (ClaimsTest brute-forces that optimum). Here:
  // DS sees the whole QAB at once and must not cost more than HH's blind
  // 50/50 split, whose parts are filtered at their per-item minimum.
  PlannerConfig config;
  const PolynomialQuery q = Q("x*y - u*v", 1.0);  // small QAB -> small DABs
  const Vector big_values = {100.0, 110.0, 120.0, 130.0};
  config.heuristic = GeneralPqHeuristic::kDifferentSum;
  auto ds = PlanQueryParts(q, big_values, Rates(), config);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->parts.size(), 1u);
  const QueryDabs& dd = ds->parts[0].dabs;
  double alpha = 0.0;
  for (size_t i = 0; i < dd.vars.size(); ++i) {
    alpha = std::max(
        alpha, dd.secondary[i] / big_values[static_cast<size_t>(dd.vars[i])]);
  }
  EXPECT_LT(alpha, 0.05);  // the small-DAB regime of Claim 2
  config.heuristic = GeneralPqHeuristic::kHalfAndHalf;
  auto hh = PlanQueryParts(q, big_values, Rates(), config);
  ASSERT_TRUE(hh.ok());
  ASSERT_EQ(hh->parts.size(), 2u);
  auto cost = [&](const QueryDabs& d) {
    double c = 0.0;
    for (size_t i = 0; i < d.vars.size(); ++i) {
      c += Rates()[static_cast<size_t>(d.vars[i])] / d.primary[i];
    }
    return c + 5.0 * d.recompute_rate;
  };
  EXPECT_LE(cost(dd), cost(MergedView(*hh)) * (1.0 + 1e-6));
}

// Property sweep: random general PQs, both heuristics; the plan's merged
// filters always respect the QAB inside the validity range, and HH's
// parts split the QAB.
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

  PlannerConfig config;
  config.heuristic = param.heuristic;
  auto plan = PlanQueryParts(q, values, rates, config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  double qab_sum = 0.0;
  for (const PlanPart& part : plan->parts) qab_sum += part.subquery.qab;
  EXPECT_LE(qab_sum, q.qab);
  ExpectDriftWithinQab(q, MergedView(*plan), values, rng, 50);
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
