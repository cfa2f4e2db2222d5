// The sparse engine's one solver: an SPD band matrix that the grids stamp
// their conductances into in place, its banded Cholesky factor, one
// solve() with factor-preconditioned CG refinement when back-substitution
// misses the residual contract, plus the stale-factor drift-refinement
// solve the PDN cache contract needs.
//
// Every system in the healing stack is a small 5-point mesh (the 4x4
// thermal grid, the 4x4/8x8 PDN meshes) whose bandwidth is its column
// count, so a direct banded factor is both the fastest and the simplest
// engine (see DESIGN.md "Solver engine"). Only the lower band is stored,
// so the matrix is symmetric by construction; a singular or indefinite
// matrix throws from factorize() with a descriptive pivot message.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/math/sparse/cg.hpp"

namespace dh::math::sparse {

/// Per-solve observability: how hard CG refinement worked.
struct SpdSolveInfo {
  std::size_t cg_iterations = 0;
};

class SpdSolver {
 public:
  /// An n x n zero matrix whose entries (i, j) satisfy |i - j| <= band.
  /// All storage, solve scratch included, is sized here; stamping,
  /// factorizing and solving reuse it.
  SpdSolver(std::size_t n, std::size_t band);

  /// Zeroes the matrix (the factor is stale until factorize()).
  void clear();
  /// Two-terminal conductance between nodes a and b: +g on both
  /// diagonals, -g on the off-diagonal. Requires |a - b| <= band.
  void add_edge(std::size_t a, std::size_t b, double g);
  /// Diagonal grounding term (pad conductance, vertical conductance).
  void add_diagonal(std::size_t i, double g);

  /// Banded Cholesky of the stamped matrix, in place. Throws dh::Error on
  /// a pivot at or below n * eps * max-diagonal (singular or not
  /// positive definite, e.g. a conductance Laplacian with no pad path to
  /// VDD); the factor is then unusable until the next factorize().
  void factorize();

  /// x = (L L^T)^-1 b by forward and back substitution with the factor.
  void substitute(std::span<const double> b, std::vector<double>& x) const;

  /// Solves A x = b into `x` by back-substitution, refined by CG
  /// preconditioned with the factor when the true relative residual
  /// exceeds 1e-10; the iteration count lands in `info`. Throws dh::Error
  /// if refinement stalls above 1e-4 — on an SPD system that means
  /// singular/ill-posed input.
  ///
  /// Both solves work in scratch vectors owned by the solver, so once
  /// they are sized neither allocates; that makes them non-reentrant: one
  /// SpdSolver must not be solved from two threads at once.
  void solve(std::span<const double> b, std::vector<double>& x,
             SpdSolveInfo* info = nullptr);

  /// Solves `true_op x = b` where true_op is a *drifted* neighbour of the
  /// factorized matrix (the PDN cache's stale-factor mode): CG on the
  /// true operator, preconditioned by this factor. Returns false (leaving
  /// `x` at the best iterate) instead of throwing when CG stalls, so the
  /// caller can refactorize.
  [[nodiscard]] bool solve_drifted(const LinearOp& true_op,
                                   std::span<const double> b,
                                   std::vector<double>& x,
                                   SpdSolveInfo* info = nullptr);

 private:
  /// Lower-band slot of entry (i, j), j <= i <= j + band.
  [[nodiscard]] std::size_t at(std::size_t i, std::size_t j) const {
    return i * (band_ + 1) + (i - j);
  }
  /// y = A x over the stored band, each row summed in ascending column
  /// order with zero entries skipped.
  void multiply(std::span<const double> x, std::vector<double>& y) const;

  std::size_t n_;
  std::size_t band_;
  std::vector<double> a_;  // lower band of A, (band_+1) per row
  std::vector<double> l_;  // lower band of its Cholesky factor, same layout
  std::vector<double> residual_;  // solve()'s b - A x
  CgScratch cg_;
};

}  // namespace dh::math::sparse
