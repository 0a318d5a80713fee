#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/condition.h"

namespace polydab::core {
namespace {

class ConditionTest : public ::testing::Test {
 protected:
  VariableRegistry reg_;
  VarId x_ = reg_.Intern("x");
  VarId y_ = reg_.Intern("y");

  Polynomial P(const std::string& s) {
    auto r = Polynomial::Parse(s, &reg_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }
};

TEST_F(ConditionTest, ProductQueryMatchesPaperEquation1) {
  // Q = xy : 5 at V = (2,2): Eq.(1) is Vx*by + Vy*bx + bx*by <= B.
  // At b = (1,1) the left side is 2+2+1 = 5 = B, so the normalized
  // condition evaluates to exactly 1 (Figure 2's b=1 assignment is tight).
  Polynomial p = P("x*y");
  Vector values = {2.0, 2.0};
  GpVarMap map;
  map.vars = p.Variables();
  auto cond = SingleDabCondition(p, values, 5.0, map);
  ASSERT_TRUE(cond.ok()) << cond.status().ToString();
  EXPECT_NEAR(cond->Evaluate({1.0, 1.0}), 1.0, 1e-12);
  // b = (0.5, 0.5): 1 + 1 + 0.25 = 2.25 -> 0.45 normalized.
  EXPECT_NEAR(cond->Evaluate({0.5, 0.5}), 2.25 / 5.0, 1e-12);
}

TEST_F(ConditionTest, DualConditionMatchesPaperEquation2) {
  // Eq.(2): (Vx+cx)*by + (Vy+cy)*bx + bx*by <= B.
  Polynomial p = P("x*y");
  Vector values = {2.0, 2.0};
  GpVarMap map;
  map.vars = p.Variables();
  map.has_secondary = true;
  auto cond = DualDabCondition(p, values, 5.0, map);
  ASSERT_TRUE(cond.ok());
  // Layout: (bx, by, cx, cy). Fig. 4 example: b=0.5, c=(3.5,2.5):
  // (2+3.5)*0.5 + (2+2.5)*0.5 + 0.25 = 5.25 > 5 -> just invalid, matching
  // the text ("primary DABs are valid till x -> 5.5, y -> 4.5" exclusive).
  EXPECT_NEAR(cond->Evaluate({0.5, 0.5, 3.5, 2.5}), 5.25 / 5.0, 1e-12);
  // A smaller secondary range is valid: c = (3.0, 2.0) ->
  // 5*0.5 + 4*0.5 + 0.25 = 4.75 <= 5.
  EXPECT_NEAR(cond->Evaluate({0.5, 0.5, 3.0, 2.0}), 4.75 / 5.0, 1e-12);
}

TEST_F(ConditionTest, RejectsNegativeCoefficients) {
  Polynomial p = P("x - y");
  GpVarMap map;
  map.vars = p.Variables();
  auto cond = SingleDabCondition(p, {1.0, 1.0}, 1.0, map);
  EXPECT_EQ(cond.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ConditionTest, RejectsNonPositiveValues) {
  Polynomial p = P("x*y");
  GpVarMap map;
  map.vars = p.Variables();
  EXPECT_FALSE(SingleDabCondition(p, {0.0, 2.0}, 1.0, map).ok());
  EXPECT_FALSE(SingleDabCondition(p, {2.0, -1.0}, 1.0, map).ok());
}

TEST_F(ConditionTest, RejectsNonPositiveQab) {
  Polynomial p = P("x*y");
  GpVarMap map;
  map.vars = p.Variables();
  EXPECT_FALSE(SingleDabCondition(p, {2.0, 2.0}, 0.0, map).ok());
}

TEST_F(ConditionTest, RejectsConstantPolynomial) {
  Polynomial p = P("3");
  GpVarMap map;  // no vars
  EXPECT_FALSE(SingleDabCondition(p, {}, 1.0, map).ok());
}

// Property: the expanded posynomial must equal (P(V+b) - P(V))/B exactly,
// for random positive-coefficient polynomials, values, and bounds.
struct ExpansionCase {
  uint64_t seed;
  int num_vars;
  int num_terms;
  int max_exp;
};

// The case's ctest name: gtest_discover_tests names a parameterized case
// by its printed value, and gtest's default print of a struct dumps its
// bytes, padding included.
void PrintTo(const ExpansionCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_vars" << c.num_vars << "_terms" << c.num_terms
      << "_exp" << c.max_exp;
}

class ExpansionProperty : public ::testing::TestWithParam<ExpansionCase> {};

TEST_P(ExpansionProperty, SingleMatchesDirectEvaluation) {
  const auto param = GetParam();
  Rng rng(param.seed);
  VariableRegistry reg;
  std::vector<VarId> ids;
  for (int i = 0; i < param.num_vars; ++i) {
    ids.push_back(reg.Intern("v" + std::to_string(i)));
  }
  std::vector<Monomial> terms;
  for (int t = 0; t < param.num_terms; ++t) {
    std::vector<std::pair<VarId, int>> powers;
    for (VarId id : ids) {
      int e = static_cast<int>(rng.UniformInt(0, param.max_exp));
      if (e > 0) powers.emplace_back(id, e);
    }
    if (powers.empty()) powers.emplace_back(ids[0], 1);
    terms.emplace_back(rng.Uniform(0.5, 10.0), std::move(powers));
  }
  Polynomial p(std::move(terms));

  Vector values(reg.size());
  for (double& v : values) v = rng.Uniform(1.0, 50.0);
  const double qab = rng.Uniform(0.1, 5.0);

  GpVarMap map;
  map.vars = p.Variables();
  auto cond = SingleDabCondition(p, values, qab, map);
  ASSERT_TRUE(cond.ok()) << cond.status().ToString();

  for (int trial = 0; trial < 20; ++trial) {
    Vector b(map.vars.size());
    for (double& bi : b) bi = rng.Uniform(0.01, 2.0);
    Vector shifted = values;
    for (size_t i = 0; i < map.vars.size(); ++i) {
      shifted[static_cast<size_t>(map.vars[i])] += b[i];
    }
    const double direct =
        (p.Evaluate(shifted) - p.Evaluate(values)) / qab;
    EXPECT_NEAR(cond->Evaluate(b), direct, 1e-9 * std::max(1.0, direct));
  }
}

TEST_P(ExpansionProperty, DualMatchesDirectEvaluation) {
  const auto param = GetParam();
  Rng rng(param.seed + 1000);
  VariableRegistry reg;
  std::vector<VarId> ids;
  for (int i = 0; i < param.num_vars; ++i) {
    ids.push_back(reg.Intern("v" + std::to_string(i)));
  }
  std::vector<Monomial> terms;
  for (int t = 0; t < param.num_terms; ++t) {
    std::vector<std::pair<VarId, int>> powers;
    for (VarId id : ids) {
      int e = static_cast<int>(rng.UniformInt(0, param.max_exp));
      if (e > 0) powers.emplace_back(id, e);
    }
    if (powers.empty()) powers.emplace_back(ids[0], 1);
    terms.emplace_back(rng.Uniform(0.5, 10.0), std::move(powers));
  }
  Polynomial p(std::move(terms));

  Vector values(reg.size());
  for (double& v : values) v = rng.Uniform(1.0, 50.0);
  const double qab = rng.Uniform(0.1, 5.0);

  GpVarMap map;
  map.vars = p.Variables();
  map.has_secondary = true;
  auto cond = DualDabCondition(p, values, qab, map);
  ASSERT_TRUE(cond.ok()) << cond.status().ToString();
  const size_t k = map.vars.size();

  for (int trial = 0; trial < 20; ++trial) {
    Vector bc(2 * k);
    for (double& w : bc) w = rng.Uniform(0.01, 2.0);
    Vector top = values;   // V + c + b
    Vector mid = values;   // V + c
    for (size_t i = 0; i < k; ++i) {
      const size_t v = static_cast<size_t>(map.vars[i]);
      mid[v] += bc[k + i];
      top[v] += bc[k + i] + bc[i];
    }
    const double direct = (p.Evaluate(top) - p.Evaluate(mid)) / qab;
    EXPECT_NEAR(cond->Evaluate(bc), direct, 1e-9 * std::max(1.0, direct));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPolynomials, ExpansionProperty,
    ::testing::Values(ExpansionCase{1, 2, 1, 1}, ExpansionCase{2, 2, 2, 2},
                      ExpansionCase{3, 3, 3, 2}, ExpansionCase{4, 4, 2, 3},
                      ExpansionCase{5, 3, 5, 1}, ExpansionCase{6, 5, 4, 2},
                      ExpansionCase{7, 2, 1, 4}, ExpansionCase{8, 6, 6, 1}));

}  // namespace
}  // namespace polydab::core
