#include "common/math/sparse/cg.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/math/linalg.hpp"

namespace dh::math::sparse {

namespace {

/// Iterations without a 1% residual gain before CG stops at its rounding
/// floor and returns the best iterate. A drifted PDN solve that plateaus
/// here above the acceptance bound refactorizes rather than burning a
/// longer window.
constexpr std::size_t kStagnationWindow = 50;

double dot(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace

CgResult pcg_solve(const LinearOp& apply_a, std::span<const double> b,
                   const Preconditioner& m, std::vector<double>& x,
                   double rel_tolerance) {
  const std::size_t n = b.size();
  x.resize(n, 0.0);
  CgResult result;

  const double b_norm = norm2(b);
  // Absolute floor keeps the b = 0 case (and denormal-range b) exact.
  const double target = rel_tolerance * b_norm + 1e-300;
  const std::size_t max_iter = 10 * n + 200;

  std::vector<double> r(n), z, p(n), ap;
  apply_a(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

  double r_norm = norm2(r);
  std::vector<double> best_x = x;
  double best_norm = r_norm;
  std::size_t last_gain_iter = 0;

  if (r_norm > target) {
    m.apply(r, z);
    double rz = dot(r, z);
    if (rz < 0.0) {
      throw Error{"PCG: preconditioner produced r'M^-1r = " +
                  std::to_string(rz) + " < 0 — preconditioner is not SPD"};
    }
    p.assign(z.begin(), z.end());
    for (std::size_t it = 1; it <= max_iter; ++it) {
      apply_a(p, ap);
      const double p_ap = dot(p, ap);
      if (!(p_ap > 0.0)) {
        // A genuine SPD operator gives p'Ap > 0 for every nonzero search
        // direction; anything else means the assembly broke the contract.
        throw Error{"PCG: curvature p'Ap = " + std::to_string(p_ap) +
                    " at iteration " + std::to_string(it) +
                    " — operator is not positive definite"};
      }
      const double alpha = rz / p_ap;
      for (std::size_t i = 0; i < n; ++i) x[i] += alpha * p[i];
      for (std::size_t i = 0; i < n; ++i) r[i] -= alpha * ap[i];
      result.iterations = it;
      r_norm = norm2(r);
      if (r_norm < best_norm) {
        if (r_norm < 0.99 * best_norm) last_gain_iter = it;
        best_norm = r_norm;
        best_x = x;
      }
      if (r_norm <= target) break;
      if (it - last_gain_iter >= kStagnationWindow) {
        break;  // rounding floor: return the best iterate found
      }
      m.apply(r, z);
      const double rz_new = dot(r, z);
      if (rz_new < 0.0) {
        throw Error{"PCG: preconditioner produced r'M^-1r = " +
                    std::to_string(rz_new) + " < 0 at iteration " +
                    std::to_string(it) + " — preconditioner is not SPD"};
      }
      const double beta = rz_new / rz;
      rz = rz_new;
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
  }

  x = std::move(best_x);
  // Recurred residuals drift from the true one near the rounding floor;
  // report (and judge convergence by) the actual ||b - A x||.
  apply_a(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  result.residual_norm = norm2(r);
  result.converged = result.residual_norm <= std::max(target, 1e-300);
  return result;
}

}  // namespace dh::math::sparse
