#include "common/matrix.h"

#include <algorithm>
#include <cmath>

namespace polydab {

double Dot(const Vector& a, const Vector& b) {
  POLYDAB_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm(const Vector& v) { return std::sqrt(Dot(v, v)); }

void Axpy(double s, const Vector& b, Vector* a) {
  POLYDAB_CHECK(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] += s * b[i];
}

Vector Matrix::Multiply(const Vector& x) const {
  POLYDAB_CHECK(x.size() == cols_);
  Vector y(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    const double* row = &data_[r * cols_];
    for (size_t c = 0; c < cols_; ++c) s += row[c] * x[c];
    y[r] = s;
  }
  return y;
}

Vector Matrix::MultiplyTranspose(const Vector& x) const {
  POLYDAB_CHECK(x.size() == rows_);
  Vector y(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    const double xr = x[r];
    for (size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

namespace {

// In-place Cholesky of the lower triangle; returns false if a pivot is not
// safely positive.
bool CholeskyFactor(Matrix* a) {
  const size_t n = a->rows();
  double* m = a->data();
  for (size_t j = 0; j < n; ++j) {
    double* rj = m + j * n;
    double d = rj[j];
    for (size_t k = 0; k < j; ++k) d -= rj[k] * rj[k];
    if (!(d > 1e-300)) return false;
    const double lj = std::sqrt(d);
    rj[j] = lj;
    for (size_t i = j + 1; i < n; ++i) {
      double* ri = m + i * n;
      double s = ri[j];
      for (size_t k = 0; k < j; ++k) s -= ri[k] * rj[k];
      ri[j] = s / lj;
    }
  }
  return true;
}

// Forward substitution L y = b into x, then back substitution Lᵀ x = y in
// place: x[ii] reads y[ii] before overwriting it, and every x[k] with
// k > ii is already final.
void CholeskySolveFactored(const Matrix& lm, const Vector& b, Vector* x) {
  const size_t n = lm.rows();
  const double* l = lm.data();
  Vector& v = *x;
  v.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l[i * n + k] * v[k];
    v[i] = s / l[i * n + i];
  }
  for (size_t ii = n; ii-- > 0;) {
    double s = v[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l[k * n + ii] * v[k];
    v[ii] = s / l[ii * n + ii];
  }
}

}  // namespace

Status SolveCholesky(const Matrix& a, const Vector& b, double reg,
                     Matrix* factor, Vector* x) {
  POLYDAB_CHECK(a.rows() == a.cols());
  POLYDAB_CHECK(a.rows() == b.size());
  POLYDAB_CHECK(x != &b);
  const size_t n = a.rows();

  // Scale the initial ridge to the matrix diagonal so behaviour is
  // invariant to the problem's overall magnitude.
  double diag_max = 0.0;
  for (size_t i = 0; i < n; ++i) diag_max = std::max(diag_max, std::fabs(a(i, i)));
  if (diag_max == 0.0) diag_max = 1.0;

  double ridge = reg;
  for (int attempt = 0; attempt < 12; ++attempt) {
    *factor = a;  // copy-assignment reuses the scratch allocation
    if (ridge > 0.0) {
      for (size_t i = 0; i < n; ++i) (*factor)(i, i) += ridge;
    }
    if (CholeskyFactor(factor)) {
      CholeskySolveFactored(*factor, b, x);
      return Status::OK();
    }
    ridge = (ridge == 0.0) ? 1e-12 * diag_max : ridge * 100.0;
  }
  return Status::NotConverged("Cholesky failed even with regularization");
}

Result<Vector> SolveCholesky(const Matrix& a, const Vector& b, double reg) {
  Matrix factor;
  Vector x;
  Status st = SolveCholesky(a, b, reg, &factor, &x);
  if (!st.ok()) return st;
  return x;
}

}  // namespace polydab
