// Higher-degree polynomial queries: the paper's worked examples are
// bilinear, but the machinery (multinomial condition expansion + GP)
// claims generality over any positive-coefficient polynomial with integer
// exponents. These tests exercise degrees 3-6, repeated variables, and
// the x*y^4 family used in the paper's related-work comparison.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dual_dab.h"
#include "core/optimal_refresh.h"
#include "core/validator.h"

namespace polydab::core {
namespace {

class HighDegreeTest : public ::testing::Test {
 protected:
  VariableRegistry reg_;
  VarId x_ = reg_.Intern("x");
  VarId y_ = reg_.Intern("y");
  VarId z_ = reg_.Intern("z");

  PolynomialQuery Q(const std::string& s, double qab) {
    auto r = Polynomial::Parse(s, &reg_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return PolynomialQuery{0, *r, qab};
  }
};

TEST_F(HighDegreeTest, QuarticComparisonFunction) {
  // The paper's f = x*y^4 at V = (40, 20).
  PolynomialQuery q = Q("x*y^4", 64000.0);  // 1% of 6.4e6
  Vector values = {40.0, 20.0, 0.0};
  Vector rates = {1.0, 1.0, 0.0};
  auto opt = SolveOptimalRefresh(q, values, rates);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  // Boundary tightness of the optimum.
  Vector shifted = values;
  shifted[0] += opt->primary[0];
  shifted[1] += opt->primary[1];
  EXPECT_NEAR(q.p.Evaluate(shifted) - q.p.Evaluate(values), 64000.0,
              64000.0 * 1e-3);

  DualDabParams params;
  params.mu = 5.0;
  auto dual = SolveDualDab(q, values, rates, params);
  ASSERT_TRUE(dual.ok());
  EXPECT_LE(PpqWorstDrift(q.p, values, *dual), 64000.0 * (1.0 + 1e-4));
}

TEST_F(HighDegreeTest, PurePowerQuery) {
  // Q = x^4: a single variable raised to a power (e.g. energy ~ v^4).
  PolynomialQuery q = Q("x^4", 10.0);
  Vector values = {5.0, 0.0, 0.0};
  Vector rates = {1.0, 0.0, 0.0};
  auto opt = SolveOptimalRefresh(q, values, rates);
  ASSERT_TRUE(opt.ok());
  // (5+b)^4 - 625 = 10 -> b = (635)^(1/4) - 5.
  EXPECT_NEAR(opt->primary[0], std::pow(635.0, 0.25) - 5.0, 1e-4);
}

TEST_F(HighDegreeTest, MixedDegreeSum) {
  PolynomialQuery q = Q("x^3*y + 2*x*y*z + z^2", 5.0);
  Vector values = {3.0, 4.0, 2.0};
  Vector rates = {0.5, 1.0, 2.0};
  DualDabParams params;
  params.mu = 5.0;
  auto dual = SolveDualDab(q, values, rates, params);
  ASSERT_TRUE(dual.ok()) << dual.status().ToString();
  EXPECT_LE(PpqWorstDrift(q.p, values, *dual), 5.0 * (1.0 + 1e-4));
  for (size_t i = 0; i < dual->vars.size(); ++i) {
    EXPECT_GE(dual->secondary[i], dual->primary[i]);
  }
}

TEST_F(HighDegreeTest, DegreeSixStaysSolvable) {
  PolynomialQuery q = Q("x^2*y^2*z^2", 50.0);
  Vector values = {2.0, 3.0, 4.0};
  Vector rates = {1.0, 1.0, 1.0};
  auto opt = SolveOptimalRefresh(q, values, rates);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  Vector shifted = values;
  for (size_t i = 0; i < 3; ++i) shifted[i] += opt->primary[i];
  EXPECT_LE(q.p.Evaluate(shifted) - q.p.Evaluate(values),
            50.0 * (1.0 + 1e-4));
}

// Property: random degree-(2..4) PPQs over 2-4 variables solve and
// validate under both methods and a mu sweep.
struct DegreeCase {
  uint64_t seed;
  double mu;
};

// The case's ctest name: gtest_discover_tests names a parameterized case
// by its printed value, and gtest's default print of a struct dumps its
// bytes, padding included.
void PrintTo(const DegreeCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_mu" << c.mu;
}

class HighDegreeProperty : public ::testing::TestWithParam<DegreeCase> {};

TEST_P(HighDegreeProperty, SolvesAndValidates) {
  const auto [seed, mu] = GetParam();
  Rng rng(seed);
  VariableRegistry reg;
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 2));
  std::vector<VarId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(reg.Intern("h" + std::to_string(i)));
  std::vector<Monomial> terms;
  const int t = 1 + static_cast<int>(rng.UniformInt(0, 2));
  for (int j = 0; j < t; ++j) {
    std::vector<std::pair<VarId, int>> powers;
    int degree_left = 2 + static_cast<int>(rng.UniformInt(0, 2));
    while (degree_left > 0) {
      const int e = 1 + static_cast<int>(rng.UniformInt(0, degree_left - 1));
      powers.emplace_back(ids[static_cast<size_t>(rng.UniformInt(0, n - 1))],
                          e);
      degree_left -= e;
    }
    terms.emplace_back(rng.Uniform(0.5, 20.0), std::move(powers));
  }
  PolynomialQuery q{0, Polynomial(std::move(terms)), 0.0};
  Vector values(reg.size()), rates(reg.size());
  for (size_t i = 0; i < reg.size(); ++i) {
    values[i] = rng.Uniform(2.0, 30.0);
    rates[i] = rng.Uniform(0.05, 1.0);
  }
  q.qab = 0.01 * q.p.Evaluate(values);

  DualDabParams params;
  params.mu = mu;
  auto dual = SolveDualDab(q, values, rates, params);
  ASSERT_TRUE(dual.ok()) << q.p.ToString(reg) << ": "
                         << dual.status().ToString();
  EXPECT_LE(PpqWorstDrift(q.p, values, *dual), q.qab * (1.0 + 1e-4));

  auto opt = SolveOptimalRefresh(q, values, rates);
  ASSERT_TRUE(opt.ok());
  Vector shifted = values;
  for (size_t i = 0; i < opt->vars.size(); ++i) {
    shifted[static_cast<size_t>(opt->vars[i])] += opt->primary[i];
  }
  EXPECT_LE(q.p.Evaluate(shifted) - q.p.Evaluate(values),
            q.qab * (1.0 + 1e-4));
}

INSTANTIATE_TEST_SUITE_P(
    Random, HighDegreeProperty,
    ::testing::Values(DegreeCase{31, 1}, DegreeCase{32, 5},
                      DegreeCase{33, 10}, DegreeCase{34, 5},
                      DegreeCase{35, 2}, DegreeCase{36, 20},
                      DegreeCase{37, 5}, DegreeCase{38, 1},
                      DegreeCase{39, 10}, DegreeCase{40, 5}));

}  // namespace
}  // namespace polydab::core
