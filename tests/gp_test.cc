#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "gp/gp_solver.h"

namespace polydab::gp {
namespace {

TEST(PosynomialTest, EvaluateMatchesHand) {
  Posynomial p;
  p.AddTerm(2.0, {{0, 1.0}, {1, -2.0}});
  p.AddTerm(0.5, {{1, 3.0}});
  Vector v = {4.0, 2.0};
  EXPECT_DOUBLE_EQ(p.Evaluate(v), 2.0 * 4.0 / 4.0 + 0.5 * 8.0);
  EXPECT_EQ(p.MaxVarIndex(), 1);
}

TEST(PosynomialTest, ScaleAndAdd) {
  Posynomial p;
  p.AddTerm(1.0, {{0, 1.0}});
  Posynomial q;
  q.AddTerm(3.0, {{0, 2.0}});
  p.Add(q);
  p.Scale(2.0);
  Vector v = {2.0};
  EXPECT_DOUBLE_EQ(p.Evaluate(v), 2.0 * 2.0 + 6.0 * 4.0);
}

TEST(GpSolverTest, RejectsEmptyProblem) {
  GpProblem gp;
  EXPECT_FALSE(SolveGp(gp).ok());
}

TEST(GpSolverTest, RejectsVarIndexBeyondNumVars) {
  GpProblem gp;
  gp.num_vars = 1;
  gp.objective.AddTerm(1.0, {{3, 1.0}});
  EXPECT_EQ(SolveGp(gp).status().code(), polydab::StatusCode::kInvalidArgument);
}

TEST(GpSolverTest, MonomialObjectiveLinearConstraint) {
  // minimize 1/x s.t. 3x <= 1  ->  x = 1/3, objective 3.
  GpProblem gp;
  gp.num_vars = 1;
  gp.objective.AddTerm(1.0, {{0, -1.0}});
  Posynomial c;
  c.AddTerm(3.0, {{0, 1.0}});
  gp.constraints.push_back(c);
  auto sol = SolveGp(gp);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->x[0], 1.0 / 3.0, 1e-5);
  EXPECT_NEAR(sol->objective, 3.0, 1e-4);
}

TEST(GpSolverTest, SymmetricProductProblem) {
  // minimize x^-1 y^-1 s.t. x + y <= 1 -> x = y = 1/2, objective 4.
  GpProblem gp;
  gp.num_vars = 2;
  gp.objective.AddTerm(1.0, {{0, -1.0}, {1, -1.0}});
  Posynomial c;
  c.AddTerm(1.0, {{0, 1.0}});
  c.AddTerm(1.0, {{1, 1.0}});
  gp.constraints.push_back(c);
  auto sol = SolveGp(gp);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->x[0], 0.5, 1e-5);
  EXPECT_NEAR(sol->x[1], 0.5, 1e-5);
  EXPECT_NEAR(sol->objective, 4.0, 1e-4);
}

TEST(GpSolverTest, BoxVolumeProblem) {
  // Classic GP: maximize box volume xyz subject to total wall+floor area.
  // minimize (xyz)^-1 s.t. 2(xy+yz+xz)/A <= 1 -> cube x=y=z=sqrt(A/6).
  const double kArea = 24.0;
  GpProblem gp;
  gp.num_vars = 3;
  gp.objective.AddTerm(1.0, {{0, -1.0}, {1, -1.0}, {2, -1.0}});
  Posynomial c;
  c.AddTerm(2.0 / kArea, {{0, 1.0}, {1, 1.0}});
  c.AddTerm(2.0 / kArea, {{1, 1.0}, {2, 1.0}});
  c.AddTerm(2.0 / kArea, {{0, 1.0}, {2, 1.0}});
  gp.constraints.push_back(c);
  auto sol = SolveGp(gp);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  const double expect = std::sqrt(kArea / 6.0);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(sol->x[j], expect, 1e-4);
}

TEST(GpSolverTest, AsymmetricWeights) {
  // minimize 4/x + 1/y s.t. x + y <= 1.
  // Lagrange: 4/x^2 = 1/y^2 -> x = 2y -> y = 1/3, x = 2/3; objective 9.
  GpProblem gp;
  gp.num_vars = 2;
  gp.objective.AddTerm(4.0, {{0, -1.0}});
  gp.objective.AddTerm(1.0, {{1, -1.0}});
  Posynomial c;
  c.AddTerm(1.0, {{0, 1.0}});
  c.AddTerm(1.0, {{1, 1.0}});
  gp.constraints.push_back(c);
  auto sol = SolveGp(gp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->x[0], 2.0 / 3.0, 1e-5);
  EXPECT_NEAR(sol->x[1], 1.0 / 3.0, 1e-5);
  EXPECT_NEAR(sol->objective, 9.0, 1e-4);
}

TEST(GpSolverTest, MultipleConstraintsBindSelectively) {
  // minimize 1/x s.t. x/2 <= 1, x/5 <= 1 -> x = 2 (first binds).
  GpProblem gp;
  gp.num_vars = 1;
  gp.objective.AddTerm(1.0, {{0, -1.0}});
  Posynomial c1, c2;
  c1.AddTerm(0.5, {{0, 1.0}});
  c2.AddTerm(0.2, {{0, 1.0}});
  gp.constraints.push_back(c1);
  gp.constraints.push_back(c2);
  auto sol = SolveGp(gp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->x[0], 2.0, 1e-4);
}

TEST(GpSolverTest, DetectsInfeasible) {
  // 2 + x <= 1 is impossible for positive x.
  GpProblem gp;
  gp.num_vars = 1;
  gp.objective.AddTerm(1.0, {{0, 1.0}});
  Posynomial c;
  c.AddTerm(2.0, {});
  c.AddTerm(1.0, {{0, 1.0}});
  gp.constraints.push_back(c);
  auto sol = SolveGp(gp);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), polydab::StatusCode::kInfeasible);
}

TEST(GpSolverTest, WarmStartReachesSameOptimum) {
  GpProblem gp;
  gp.num_vars = 2;
  gp.objective.AddTerm(1.0, {{0, -1.0}});
  gp.objective.AddTerm(2.0, {{1, -1.0}});
  Posynomial c;
  c.AddTerm(0.3, {{0, 1.0}});
  c.AddTerm(0.7, {{1, 1.0}});
  c.AddTerm(0.1, {{0, 1.0}, {1, 1.0}});
  gp.constraints.push_back(c);

  auto cold = SolveGp(gp);
  ASSERT_TRUE(cold.ok());
  auto warm = SolveGp(gp, SolverOptions(), &cold->x);
  ASSERT_TRUE(warm.ok());
  EXPECT_NEAR(warm->objective, cold->objective,
              1e-6 * std::abs(cold->objective));
  // Warm starting skips phase I and most of the barrier path; it must not
  // cost substantially more work than a cold solve (exact counts depend on
  // how the inner/outer iterations trade off).
  EXPECT_LE(warm->newton_iterations, 2 * cold->newton_iterations);
}

TEST(GpSolverTest, InfeasibleWarmStartIsRepaired) {
  // Warm start far outside the feasible region must still work (phase I).
  GpProblem gp;
  gp.num_vars = 1;
  gp.objective.AddTerm(1.0, {{0, -1.0}});
  Posynomial c;
  c.AddTerm(1.0, {{0, 1.0}});
  gp.constraints.push_back(c);
  Vector bad_start = {100.0};  // violates x <= 1
  auto sol = SolveGp(gp, SolverOptions(), &bad_start);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->x[0], 1.0, 1e-4);
}

TEST(GpSolverTest, FractionalAndNegativeExponents) {
  // minimize x^-0.5 s.t. x^2 / 16 <= 1 -> x = 4, objective 0.5.
  GpProblem gp;
  gp.num_vars = 1;
  gp.objective.AddTerm(1.0, {{0, -0.5}});
  Posynomial c;
  c.AddTerm(1.0 / 16.0, {{0, 2.0}});
  gp.constraints.push_back(c);
  auto sol = SolveGp(gp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->x[0], 4.0, 1e-4);
  EXPECT_NEAR(sol->objective, 0.5, 1e-5);
}

// Sweep: minimize a/x + b/y s.t. x + y <= s has a closed form
// x* = s*sqrt(a)/(sqrt(a)+sqrt(b)), y* = s*sqrt(b)/(sqrt(a)+sqrt(b)).
struct WeightCase {
  double a, b, s;
};

// The case's ctest name: gtest_discover_tests names a parameterized case
// by its printed value, and gtest's default print of a struct dumps its
// bytes.
void PrintTo(const WeightCase& c, std::ostream* os) {
  *os << "a" << c.a << "_b" << c.b << "_s" << c.s;
}

class GpWeightSweep : public ::testing::TestWithParam<WeightCase> {};

TEST_P(GpWeightSweep, MatchesClosedForm) {
  const auto [a, b, s] = GetParam();
  GpProblem gp;
  gp.num_vars = 2;
  gp.objective.AddTerm(a, {{0, -1.0}});
  gp.objective.AddTerm(b, {{1, -1.0}});
  Posynomial c;
  c.AddTerm(1.0 / s, {{0, 1.0}});
  c.AddTerm(1.0 / s, {{1, 1.0}});
  gp.constraints.push_back(c);
  auto sol = SolveGp(gp);
  ASSERT_TRUE(sol.ok());
  const double ra = std::sqrt(a), rb = std::sqrt(b);
  EXPECT_NEAR(sol->x[0], s * ra / (ra + rb), 1e-4 * s);
  EXPECT_NEAR(sol->x[1], s * rb / (ra + rb), 1e-4 * s);
}

INSTANTIATE_TEST_SUITE_P(
    Weights, GpWeightSweep,
    ::testing::Values(WeightCase{1, 1, 1}, WeightCase{4, 1, 1},
                      WeightCase{1, 9, 2}, WeightCase{100, 1, 0.5},
                      WeightCase{0.01, 1, 10}, WeightCase{25, 16, 3}));

}  // namespace
}  // namespace polydab::gp
