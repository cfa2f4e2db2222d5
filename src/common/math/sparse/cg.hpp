// Preconditioned conjugate gradients for the SPD systems in the healing
// stack (conductance Laplacians, thermal RC grids). The operator is a
// callback, not a matrix: the PDN drift-refinement path applies the *true*
// (aged) conductances matrix-free while preconditioning with a stale
// factorization, mirroring the dense cache's stale-LU iterative
// refinement.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

namespace dh::math::sparse {

/// y = A x. `y` is sized by the callee.
using LinearOp =
    std::function<void(std::span<const double>, std::vector<double>&)>;

class SpdSolver;

/// pcg_solve's work vectors, reused from call to call, so a solver that
/// keeps one (reserved for its size) solves without allocating.
struct CgScratch {
  void reserve(std::size_t n) {
    for (std::vector<double>* v : {&r, &z, &p, &ap, &best_x}) v->reserve(n);
  }
  std::vector<double> r, z, p, ap, best_x;
};

struct CgResult {
  std::size_t iterations = 0;
  double residual_norm = 0.0;  // ||b - A x||_2 of the returned iterate
  bool converged = false;
};

/// Solves A x = b preconditioned by the factor M of an SPD band matrix
/// (M^-1 r is its forward/back substitution), starting from the contents of
/// `x` (resize/zero it for a cold start). Returns the best iterate found.
/// Converged when ||r||_2 <= rel_tolerance * ||b||_2 (plus a tiny
/// absolute floor so b = 0 returns x = 0 immediately). Gives up after
/// 10 n + 200 iterations (CG in exact arithmetic needs <= n), or early
/// when the residual has not improved by 1% over 50 iterations (the
/// rounding floor).
/// Throws dh::Error when A or M is detected indefinite (p'Ap <= 0 or
/// r'M^-1r < 0 — the SPD contract is broken, e.g. an asymmetric or
/// negative-conductance assembly). `scratch` holds the work vectors.
CgResult pcg_solve(const LinearOp& apply_a, std::span<const double> b,
                   const SpdSolver& m, std::vector<double>& x,
                   double rel_tolerance, CgScratch& scratch);

}  // namespace dh::math::sparse
