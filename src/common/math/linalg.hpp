// Dense linear algebra kernels used by the MNA circuit solver and the
// PDN's uncached reference solve, plus the Thomas algorithm used by the
// Korhonen EM PDE integrator.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dh::math {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  void fill(double v);

  /// y = A x.
  [[nodiscard]] std::vector<double> multiply(
      std::span<const double> x) const;

  [[nodiscard]] std::vector<double>& data() { return data_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dense solve A x = b by LU factorization with partial pivoting of a
/// copy of `a`. Throws dh::Error if `a` is singular to working precision.
[[nodiscard]] std::vector<double> solve_dense(const Matrix& a,
                                              std::span<const double> b);

/// Thomas-algorithm factor of a tridiagonal matrix: the sub-diagonal as
/// given, the eliminated super-diagonal c' and the pivots. One factor
/// serves any number of right-hand sides (e.g. every backward-Euler
/// substep of a Korhonen wire whose matrix has not changed).
struct TridiagonalFactor {
  std::vector<double> lower;    // n-1 entries
  std::vector<double> c_prime;  // n-1 entries
  std::vector<double> pivot;    // n entries
};

/// Factors the matrix with sub-diagonal `lower` (n-1 entries), diagonal
/// `diag` (n) and super-diagonal `upper` (n-1) into `f`, reusing its
/// storage. Throws dh::Error on a pivot of magnitude <= 1e-300 (or NaN).
void factor_tridiagonal(std::span<const double> lower,
                        std::span<const double> diag,
                        std::span<const double> upper, TridiagonalFactor& f);

/// Forward and back substitution against `f`, writing the solution into
/// `x` (n entries). `x` may alias `rhs`.
void solve_tridiagonal(const TridiagonalFactor& f,
                       std::span<const double> rhs, std::span<double> x);

/// Euclidean norm.
[[nodiscard]] double norm2(std::span<const double> v);

}  // namespace dh::math
