#ifndef POLYDAB_COMMON_MATRIX_H_
#define POLYDAB_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

/// \file matrix.h
/// Small dense linear-algebra kernel used by the geometric-program solver
/// (src/gp). The Newton systems there are modest (tens to a few hundred
/// variables), so a straightforward row-major dense implementation with a
/// regularized Cholesky factorization is both sufficient and dependable.

namespace polydab {

using Vector = std::vector<double>;

/// Euclidean inner product. Sizes must match.
double Dot(const Vector& a, const Vector& b);

/// \brief Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Reshape to rows x cols with every entry reset to zero. Reuses the
  /// existing allocation when capacity suffices, which lets the GP
  /// solver's workspace (gp/solver_internal.h) rebuild its Newton system
  /// every iteration without touching the heap.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  double& operator()(size_t r, size_t c) {
    POLYDAB_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    POLYDAB_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Row-major storage: entry (r, c) is data()[r * cols() + c]. For hot
  /// loops whose indices are in range by construction.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// y = M x.
  Vector Multiply(const Vector& x) const;

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// \brief Solve the symmetric positive-definite system A x = b by Cholesky
/// factorization, into \p x.
///
/// If A is only positive semi-definite (or slightly indefinite from
/// round-off, common near the boundary of a barrier subproblem), a Tikhonov
/// ridge `reg * I` is added and the factorization retried with a growing
/// ridge, up to a bounded number of attempts. Returns kNotConverged if no
/// ridge in range produces a valid factorization.
///
/// Only the lower triangle and the diagonal of \p a are read: the ridge's
/// scale, the factorization and both substitutions never look above the
/// diagonal, so a caller may build just that half (the GP solver's Newton
/// systems do) and leave anything at all, NaN included, in the rest.
///
/// \p factor is scratch for the Cholesky factor and \p x is resized to n;
/// both are fully overwritten, so whatever they held before (any size)
/// never changes a bit of the result. Once both have the capacity for an
/// n x n system, the call makes no heap allocation. \p x must not alias
/// \p b.
Status SolveCholesky(const Matrix& a, const Vector& b, double reg,
                     Matrix* factor, Vector* x);

/// The same solve with local scratch, returning the solution by value.
Result<Vector> SolveCholesky(const Matrix& a, const Vector& b,
                             double reg = 0.0);

}  // namespace polydab

#endif  // POLYDAB_COMMON_MATRIX_H_
