// Facade over the sparse engine: one banded-Cholesky factorization of an
// SPD system, one solve() with factor-preconditioned CG refinement when
// back-substitution misses the residual contract, plus the stale-factor
// drift-refinement solve the PDN cache contract needs.
//
// Every system in the healing stack is a small 5-point mesh (the 4x4
// thermal grid, the 4x4/8x8 PDN meshes) whose bandwidth is its column
// count, so a direct banded factor is both the fastest and the simplest
// engine (see DESIGN.md "Solver engine").
// Asymmetric input throws dh::Error up front (the SPD contract is
// structural); a singular or indefinite matrix throws from the
// factorization with a descriptive pivot message.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/math/sparse/cg.hpp"
#include "common/math/sparse/csr.hpp"
#include "common/math/sparse/direct.hpp"

namespace dh::math::sparse {

/// Per-solve observability: how hard CG refinement worked, and the true
/// residual of the returned solution.
struct SpdSolveInfo {
  std::size_t cg_iterations = 0;
  double residual_norm = 0.0;   // ||b - A x||_2
  double relative_residual = 0.0;  // residual_norm / ||b||_2 (0 for b=0)
};

class SpdSolver {
 public:
  /// Factorizes `a`. Throws dh::Error when it is not square, not
  /// symmetric, or not numerically positive definite.
  explicit SpdSolver(CsrMatrix a);

  /// Solves A x = b by back-substitution, refined by CG preconditioned
  /// with the factor when the true relative residual exceeds 1e-10; the
  /// iteration count and residual land in `info`. Throws dh::Error if
  /// refinement stalls above 1e-4 — on an SPD system that means
  /// singular/ill-posed input.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b,
                                          SpdSolveInfo* info = nullptr) const;

  /// Solves `true_op x = b` where true_op is a *drifted* neighbour of the
  /// factorized matrix (the PDN cache's stale-factor mode): CG on the
  /// true operator, preconditioned by this factor. Returns false (leaving
  /// `x` at the best iterate) instead of throwing when CG stalls, so the
  /// caller can refactorize.
  [[nodiscard]] bool solve_drifted(const LinearOp& true_op,
                                   std::span<const double> b,
                                   std::vector<double>& x,
                                   SpdSolveInfo* info = nullptr) const;

  [[nodiscard]] const CsrMatrix& matrix() const { return a_; }
  [[nodiscard]] std::size_t dim() const { return a_.rows(); }

 private:
  CsrMatrix a_;
  BandedCholesky factor_;
};

}  // namespace dh::math::sparse
