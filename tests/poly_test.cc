#include <gtest/gtest.h>

#include "poly/polynomial.h"

namespace polydab {
namespace {

class PolyTest : public ::testing::Test {
 protected:
  VariableRegistry reg_;
  VarId x_ = reg_.Intern("x");
  VarId y_ = reg_.Intern("y");
  VarId u_ = reg_.Intern("u");
  VarId v_ = reg_.Intern("v");

  Polynomial P(const std::string& s) {
    auto r = Polynomial::Parse(s, &reg_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  Vector Values(double x, double y, double u = 1, double v = 1) {
    Vector vals(reg_.size(), 0.0);
    vals[static_cast<size_t>(x_)] = x;
    vals[static_cast<size_t>(y_)] = y;
    vals[static_cast<size_t>(u_)] = u;
    vals[static_cast<size_t>(v_)] = v;
    return vals;
  }
};

TEST_F(PolyTest, RegistryInternsAndFinds) {
  EXPECT_EQ(reg_.Find("x"), x_);
  EXPECT_EQ(reg_.Find("nope"), -1);
  EXPECT_EQ(reg_.Intern("x"), x_);  // idempotent
  EXPECT_EQ(reg_.Name(y_), "y");
}

TEST_F(PolyTest, MonomialCanonicalizesDuplicates) {
  Monomial m(2.0, {{y_, 1}, {x_, 2}, {y_, 3}});
  ASSERT_EQ(m.powers().size(), 2u);
  EXPECT_EQ(m.ExponentOf(x_), 2);
  EXPECT_EQ(m.ExponentOf(y_), 4);
  EXPECT_EQ(m.Degree(), 6);
}

TEST_F(PolyTest, MonomialDropsZeroExponents) {
  Monomial m(1.0, {{x_, 0}, {y_, 2}});
  EXPECT_EQ(m.ExponentOf(x_), 0);
  EXPECT_EQ(m.Degree(), 2);
}

TEST_F(PolyTest, MonomialEvaluate) {
  Monomial m(3.0, {{x_, 1}, {y_, 2}});
  EXPECT_DOUBLE_EQ(m.Evaluate(Values(2, 3)), 3.0 * 2 * 9);
}

TEST_F(PolyTest, MonomialProduct) {
  Monomial a(2.0, {{x_, 1}});
  Monomial b(3.0, {{x_, 1}, {y_, 1}});
  Monomial c = a * b;
  EXPECT_DOUBLE_EQ(c.coef(), 6.0);
  EXPECT_EQ(c.ExponentOf(x_), 2);
  EXPECT_EQ(c.ExponentOf(y_), 1);
}

TEST_F(PolyTest, PolynomialMergesLikeTerms) {
  Polynomial p({Monomial(1.0, {{x_, 1}}), Monomial(2.0, {{x_, 1}})});
  ASSERT_EQ(p.terms().size(), 1u);
  EXPECT_DOUBLE_EQ(p.terms()[0].coef(), 3.0);
}

TEST_F(PolyTest, PolynomialDropsCancelledTerms) {
  Polynomial p = P("x*y") - P("x*y");
  EXPECT_TRUE(p.IsZero());
  EXPECT_EQ(p.Degree(), 0);
}

TEST_F(PolyTest, ParseProductQuery) {
  Polynomial p = P("x*y");
  EXPECT_DOUBLE_EQ(p.Evaluate(Values(2, 2)), 4.0);
  EXPECT_EQ(p.Degree(), 2);
}

TEST_F(PolyTest, ParseArbitrageQuery) {
  // Query 1(b): difference of two products.
  Polynomial p = P("3*x*y - u*v");
  EXPECT_DOUBLE_EQ(p.Evaluate(Values(2, 3, 4, 5)), 18.0 - 20.0);
  EXPECT_FALSE(p.IsPositiveCoefficient());
}

TEST_F(PolyTest, ParseExponentsAndCoefficients) {
  Polynomial p = P("2.5*x^2*y + 0.5*y^3");
  EXPECT_DOUBLE_EQ(p.Evaluate(Values(2, 3)), 2.5 * 4 * 3 + 0.5 * 27);
  EXPECT_EQ(p.Degree(), 3);
}

TEST_F(PolyTest, ParseRejectsGarbage) {
  VariableRegistry reg;
  EXPECT_FALSE(Polynomial::Parse("", &reg).ok());
  EXPECT_FALSE(Polynomial::Parse("x +", &reg).ok());
  EXPECT_FALSE(Polynomial::Parse("x^y", &reg).ok());
}

TEST_F(PolyTest, VariablesSortedUnique) {
  Polynomial p = P("y*x + x^2");
  std::vector<VarId> vars = p.Variables();
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], x_);
  EXPECT_EQ(vars[1], y_);
}

TEST_F(PolyTest, VariablesDeduplicateAcrossTerms) {
  // Every variable recurs in several terms and the terms list them out of
  // id order; the result is still each id once, ascending.
  Polynomial p = P("v*y + u^2*x + x*y*v + y^3 + 7");
  EXPECT_EQ(p.Variables(), (std::vector<VarId>{x_, y_, u_, v_}));
  EXPECT_TRUE(P("5").Variables().empty());
}

TEST_F(PolyTest, SplitSignsReconstructs) {
  Polynomial p = P("3*x*y - u*v + 2*x - y");
  Polynomial pos, neg;
  p.SplitSigns(&pos, &neg);
  EXPECT_TRUE(pos.IsPositiveCoefficient());
  EXPECT_TRUE(neg.IsPositiveCoefficient());
  EXPECT_TRUE(pos - neg == p);
}

TEST_F(PolyTest, IndependenceDetection) {
  // §III-B.1: x*y and u*v are independent; x^2 and x*y are dependent.
  EXPECT_TRUE(P("x*y").IsIndependentOf(P("u*v")));
  EXPECT_FALSE(P("x^2").IsIndependentOf(P("x*y")));
}

TEST_F(PolyTest, PartialDerivative) {
  Polynomial p = P("3*x^2*y + y");
  Polynomial dx = p.PartialDerivative(x_);
  EXPECT_TRUE(dx == P("6*x*y"));
  Polynomial dy = p.PartialDerivative(y_);
  EXPECT_TRUE(dy == P("3*x^2 + 1"));
  EXPECT_TRUE(p.PartialDerivative(u_).IsZero());
}

TEST_F(PolyTest, ArithmeticMatchesEvaluation) {
  Polynomial a = P("x*y + 2*u");
  Polynomial b = P("y^2 - u");
  Vector vals = Values(1.5, 2.5, 3.5, 4.5);
  EXPECT_NEAR((a + b).Evaluate(vals), a.Evaluate(vals) + b.Evaluate(vals),
              1e-12);
  EXPECT_NEAR((a - b).Evaluate(vals), a.Evaluate(vals) - b.Evaluate(vals),
              1e-12);
  EXPECT_NEAR((a * b).Evaluate(vals), a.Evaluate(vals) * b.Evaluate(vals),
              1e-12);
  EXPECT_NEAR((a * 3.0).Evaluate(vals), 3.0 * a.Evaluate(vals), 1e-12);
}

TEST_F(PolyTest, ToStringRoundTrips) {
  Polynomial p = P("3*x*y^2 - 1*u*v");
  std::string s = p.ToString(reg_);
  auto q = Polynomial::Parse(s, &reg_);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(p == *q);
}

TEST_F(PolyTest, OilSpillAreaQueryExpands) {
  // §I example 2: (x1-x0)^2 + (y1-y0)^2 — a general PQ after expansion.
  VariableRegistry reg;
  auto p = Polynomial::Parse(
      "x1^2 - 2*x1*x0 + x0^2 + y1^2 - 2*y1*y0 + y0^2", &reg);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->IsPositiveCoefficient());
  Polynomial pos, neg;
  p->SplitSigns(&pos, &neg);
  EXPECT_EQ(pos.terms().size(), 4u);
  EXPECT_EQ(neg.terms().size(), 2u);
}


TEST_F(PolyTest, ParserSurvivesHostileInputs) {
  // None of these may crash; all must return a Status, not garbage.
  VariableRegistry reg;
  const char* inputs[] = {
      "",        " ",      "+",     "-",      "*",      "^",
      "x^",      "x^-2",   "3*",    "* x",    "x**y",   "x^999999",
      "1e999*x", "x + + y", "((x))", "x y z",  "-x - -y", "3.1.4*x",
      "x^2^3",   "\t\n",   "0*x",   "x-",     "9",       "x^0",
  };
  for (const char* in : inputs) {
    auto r = Polynomial::Parse(in, &reg);
    if (r.ok()) {
      // Accepted inputs must at least evaluate without crashing.
      Vector values(reg.size(), 1.0);
      (void)r->Evaluate(values);
    }
  }
}

TEST_F(PolyTest, ParserAcceptsWhitespaceVariants) {
  VariableRegistry reg;
  auto a = Polynomial::Parse("3*x*y-u", &reg);
  auto b = Polynomial::Parse("  3 * x * y -  u ", &reg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*a == *b);
}

TEST_F(PolyTest, LargeCoefficientAndExponentRoundTrip) {
  VariableRegistry reg;
  auto p = Polynomial::Parse("123456.789*a^7*b + 1e-6*c^3", &reg);
  ASSERT_TRUE(p.ok());
  auto q = Polynomial::Parse(p->ToString(reg), &reg);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(*p == *q);
}

}  // namespace
}  // namespace polydab
