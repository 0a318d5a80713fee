#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"

namespace polydab {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad QAB");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad QAB");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::Infeasible("no feasible point"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
}

Result<double> HalfIfPositive(double x) {
  if (x <= 0) return Status::OutOfRange("x must be positive");
  return x / 2;
}

Result<double> QuarterIfPositive(double x) {
  POLYDAB_ASSIGN_OR_RETURN(double h, HalfIfPositive(x));
  return HalfIfPositive(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<double> ok = QuarterIfPositive(8.0);
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(*ok, 2.0);
  Result<double> bad = QuarterIfPositive(-1.0);
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(MathUtilTest, LogSumExpMatchesDirect) {
  std::vector<double> z = {0.1, -2.0, 1.5};
  double direct = std::log(std::exp(0.1) + std::exp(-2.0) + std::exp(1.5));
  EXPECT_NEAR(LogSumExp(z), direct, 1e-12);
}

TEST(MathUtilTest, LogSumExpHandlesLargeExponents) {
  std::vector<double> z = {1000.0, 999.0};
  EXPECT_NEAR(LogSumExp(z), 1000.0 + std::log(1.0 + std::exp(-1.0)), 1e-9);
}

TEST(MathUtilTest, LogSumExpEmptyIsMinusInfinity) {
  EXPECT_EQ(LogSumExp({}), -std::numeric_limits<double>::infinity());
}

TEST(RngTest, ParetoHasRequestedMean) {
  Rng rng(7);
  const double mean = 0.1;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Pareto(mean, 2.5);
  EXPECT_NEAR(sum / n, mean, 0.01);
}

TEST(RngTest, ParetoIsBoundedBelowByScale) {
  Rng rng(11);
  const double mean = 0.1, shape = 2.5;
  const double scale = mean * (shape - 1.0) / shape;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(mean, shape), scale);
  }
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(MatrixTest, Multiply) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  Vector x = {1, 1, 1};
  Vector y = m.Multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
}

bool SameBits(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Rank-1 PSD matrix: plain Cholesky fails on the zero pivot, so every
/// solve of it goes through the ridge retry.
Matrix RankOne() {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = a(1, 0) = 1;
  a(1, 1) = 1;
  return a;
}

TEST(MatrixTest, CholeskySolvesSpdSystem) {
  // A = L L^T with known L.
  Matrix a(3, 3);
  a(0, 0) = 4;
  a(0, 1) = a(1, 0) = 2;
  a(0, 2) = a(2, 0) = 0;
  a(1, 1) = 5;
  a(1, 2) = a(2, 1) = 1;
  a(2, 2) = 3;
  Vector b = {2, 8, 4};
  Matrix factor;
  Vector x;
  ASSERT_TRUE(SolveCholesky(a, b, 0.0, &factor, &x).ok());
  Vector check = a.Multiply(x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(check[i], b[i], 1e-10);
}

TEST(MatrixTest, CholeskyRegularizesSemidefinite) {
  const Matrix a = RankOne();
  Matrix factor;
  Vector x;
  ASSERT_TRUE(SolveCholesky(a, {1, 1}, 0.0, &factor, &x).ok());
  // Regularized solution still approximately solves the system.
  Vector check = a.Multiply(x);
  EXPECT_NEAR(check[0], 1.0, 1e-5);
  EXPECT_NEAR(check[1], 1.0, 1e-5);
}

TEST(MatrixTest, CholeskyRidgeRetryIsBitIdenticalThroughBothEntryPoints) {
  const Matrix a = RankOne();
  const Vector b = {1, 2};
  for (double reg : {0.0, 1e-6}) {
    auto by_value = SolveCholesky(a, b, reg);
    Matrix factor;
    Vector x;
    ASSERT_TRUE(by_value.ok());
    ASSERT_TRUE(SolveCholesky(a, b, reg, &factor, &x).ok());
    EXPECT_TRUE(SameBits(*by_value, x)) << "reg=" << reg;
  }
}

TEST(MatrixTest, CholeskyScratchThatHeldALargerMatrixGivesFreshBits) {
  Matrix big(5, 5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      big(i, j) = 1.0 / static_cast<double>(i + j + 1);
    }
    big(i, i) += 1.0;
  }
  Matrix factor;
  Vector x;
  ASSERT_TRUE(SolveCholesky(big, {1, 2, 3, 4, 5}, 0.0, &factor, &x).ok());

  // A smaller SPD system, and the ridge-retry system, through the used
  // scratch and through fresh scratch.
  Matrix small(3, 3);
  small(0, 0) = 4;
  small(0, 1) = small(1, 0) = 2;
  small(1, 1) = 5;
  small(1, 2) = small(2, 1) = 1;
  small(2, 2) = 3;
  for (const auto& [a, b] : {std::pair{small, Vector{2, 8, 4}},
                             std::pair{RankOne(), Vector{1, 1}}}) {
    ASSERT_TRUE(SolveCholesky(a, b, 0.0, &factor, &x).ok());
    Matrix fresh_factor;
    Vector fresh_x;
    ASSERT_TRUE(SolveCholesky(a, b, 0.0, &fresh_factor, &fresh_x).ok());
    EXPECT_TRUE(SameBits(x, fresh_x)) << "n=" << a.rows();
  }
}

TEST(MatrixTest, CholeskyReadsOnlyTheLowerTriangle) {
  // The GP solver builds only the lower half of its Newton systems, so
  // whatever sits above the diagonal must not change a bit of the
  // solution: the direct solve, the ridge-retry solve and an explicit
  // ridge, each with the strict upper triangle filled with NaN.
  Matrix spd(4, 4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      spd(i, j) = 1.0 / static_cast<double>(i + j + 1);
    }
    spd(i, i) += 0.5;
  }
  const Vector b4 = {1, -2, 3, 0.5};
  for (const auto& [a, b, reg] :
       {std::tuple{spd, b4, 0.0}, std::tuple{RankOne(), Vector{1, 2}, 0.0},
        std::tuple{spd, b4, 1e-3}}) {
    Matrix lower = a;
    for (size_t i = 0; i < a.rows(); ++i) {
      for (size_t j = i + 1; j < a.cols(); ++j) lower(i, j) = std::nan("");
    }
    Matrix factor;
    Vector full_x;
    Vector lower_x;
    ASSERT_TRUE(SolveCholesky(a, b, reg, &factor, &full_x).ok());
    ASSERT_TRUE(SolveCholesky(lower, b, reg, &factor, &lower_x).ok());
    EXPECT_TRUE(SameBits(full_x, lower_x)) << "n=" << a.rows();
    for (double v : lower_x) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(MatrixTest, CholeskyExhaustedRetriesReportNotConverged) {
  // Indefinite far beyond the largest ridge the retry loop reaches
  // (1e8 x the diagonal scale): the GP solver's damped stage retry keys
  // on exactly this code.
  Matrix a(2, 2);
  a(0, 0) = a(1, 1) = 1;
  a(0, 1) = a(1, 0) = 1e10;
  Matrix factor;
  Vector x;
  EXPECT_EQ(SolveCholesky(a, {1, 1}, 0.0, &factor, &x).code(),
            StatusCode::kNotConverged);
  auto by_value = SolveCholesky(a, {1, 1});
  ASSERT_FALSE(by_value.ok());
  EXPECT_EQ(by_value.status().code(), StatusCode::kNotConverged);
}

TEST(VectorOpsTest, Dot) {
  Vector a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32);
}

}  // namespace
}  // namespace polydab
