#include "common/math/sparse/spd_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/math/linalg.hpp"

namespace dh::math::sparse {

namespace {

/// Quality target: a solve whose true relative residual is at or below
/// this bound is accepted outright; above it, the engine runs
/// factor-preconditioned iterative refinement before judging again.
constexpr double kAcceptRelResidual = 1e-10;

/// CG target for a drifted solve. Tight enough for drift-refined PDN
/// solves to agree with a fresh dense solve to 1e-10, and ~500x above
/// double-precision epsilon, so well-conditioned systems reach it instead
/// of stagnating below it.
constexpr double kDriftRelTolerance = 1e-13;

/// Rejection bound after refinement. Severely ill-conditioned but
/// solvable systems (aged grids whose broken segments spread the
/// conductances across ~12 decades) bottom out around 1e-7 relative —
/// the double-precision floor any engine shares, dense LU included —
/// and are accepted. A genuinely singular matrix (pivots made of rounding
/// noise) stalls at O(1) and throws.
constexpr double kRejectRelResidual = 1e-4;

}  // namespace

SpdSolver::SpdSolver(std::size_t n, std::size_t band)
    : n_(n), band_(band), a_(n * (band + 1), 0.0), l_(a_.size(), 0.0) {
  residual_.reserve(n);
  cg_.reserve(n);
}

void SpdSolver::clear() { std::fill(a_.begin(), a_.end(), 0.0); }

void SpdSolver::add_edge(std::size_t a, std::size_t b, double g) {
  DH_REQUIRE(a != b, "edge endpoints must differ");
  DH_REQUIRE(a < n_ && b < n_, "edge endpoint out of range");
  const std::size_t hi = std::max(a, b);
  const std::size_t lo = std::min(a, b);
  DH_REQUIRE(hi - lo <= band_, "edge lies outside the matrix band");
  a_[at(a, a)] += g;
  a_[at(b, b)] += g;
  a_[at(hi, lo)] -= g;
}

void SpdSolver::add_diagonal(std::size_t i, double g) {
  DH_REQUIRE(i < n_, "diagonal index out of range");
  a_[at(i, i)] += g;
}

void SpdSolver::factorize() {
  // Smallest pivot accepted, relative to the largest diagonal entry so
  // that an exactly-singular system (e.g. an ungrounded Laplacian, whose
  // final pivot is pure rounding noise) is rejected instead of producing
  // a garbage factor, while merely ill-conditioned but solvable systems
  // pass.
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    max_diag = std::max(max_diag, std::abs(a_[at(i, i)]));
  }
  const double floor =
      std::max(static_cast<double>(n_) *
                   std::numeric_limits<double>::epsilon() * max_diag,
               1e-300);
  std::copy(a_.begin(), a_.end(), l_.begin());
  const auto l = [this](std::size_t i, std::size_t j) -> double& {
    return l_[at(i, j)];
  };
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j0 = i > band_ ? i - band_ : 0;
    for (std::size_t j = j0; j < i; ++j) {
      double acc = l(i, j);
      const std::size_t k0 = std::max(j0, j > band_ ? j - band_ : 0);
      for (std::size_t k = k0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / l(j, j);
    }
    double acc = l(i, i);
    for (std::size_t k = j0; k < i; ++k) acc -= l(i, k) * l(i, k);
    if (!(acc > floor) || !std::isfinite(acc)) {
      throw Error{"banded Cholesky: pivot " + std::to_string(acc) +
                  " at row " + std::to_string(i) + " of " +
                  std::to_string(n_) +
                  " is not positive — matrix is singular or not positive "
                  "definite"};
    }
    l(i, i) = std::sqrt(acc);
  }
}

void SpdSolver::substitute(std::span<const double> b,
                           std::vector<double>& x) const {
  DH_REQUIRE(b.size() == n_, "banded solve dimension mismatch");
  x.assign(b.begin(), b.end());
  // L y = b.
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = x[i];
    const std::size_t j0 = i > band_ ? i - band_ : 0;
    for (std::size_t j = j0; j < i; ++j) acc -= l_[at(i, j)] * x[j];
    x[i] = acc / l_[at(i, i)];
  }
  // L^T x = y, scattered row-wise (row access only).
  for (std::size_t i = n_; i-- > 0;) {
    const double xi = x[i] / l_[at(i, i)];
    x[i] = xi;
    const std::size_t j0 = i > band_ ? i - band_ : 0;
    for (std::size_t j = j0; j < i; ++j) x[j] -= l_[at(i, j)] * xi;
  }
}

void SpdSolver::multiply(std::span<const double> x,
                         std::vector<double>& y) const {
  y.resize(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    double acc = 0.0;
    // Columns left of and on the diagonal come from row r, those right
    // of it from the mirrored lower entries of the rows below.
    for (std::size_t c = r > band_ ? r - band_ : 0; c <= r; ++c) {
      const double v = a_[at(r, c)];
      if (v != 0.0) acc += v * x[c];
    }
    const std::size_t c_end = std::min(n_, r + band_ + 1);
    for (std::size_t c = r + 1; c < c_end; ++c) {
      const double v = a_[at(c, r)];
      if (v != 0.0) acc += v * x[c];
    }
    y[r] = acc;
  }
}

void SpdSolver::solve(std::span<const double> b, std::vector<double>& x,
                      SpdSolveInfo* info) {
  DH_REQUIRE(b.size() == n_, "SPD solve dimension mismatch");
  SpdSolveInfo local;
  const double b_norm = norm2(b);
  const auto relative = [b_norm](double r) {
    return b_norm > 0.0 ? r / b_norm : 0.0;
  };
  substitute(b, x);
  // Price the true residual (one O(n b) product, cheap next to the
  // back-substitution it follows).
  multiply(x, residual_);
  for (std::size_t i = 0; i < n_; ++i) residual_[i] = b[i] - residual_[i];
  if (relative(norm2(residual_)) > kAcceptRelResidual) {
    // Ill-conditioned but solvable systems leave a rounding-sized gap a
    // direct factor cannot close in one sweep; iterative refinement (CG
    // on A preconditioned by the factor, warm-started from x) drives it
    // to the double-precision floor. What no engine can fix is a
    // genuinely singular matrix whose pivots were rounding noise: its
    // residual stays orders of magnitude above the floor.
    const CgResult res = pcg_solve(
        [this](std::span<const double> v, std::vector<double>& y) {
          multiply(v, y);
        },
        b, *this, x, kAcceptRelResidual, cg_);
    local.cg_iterations = res.iterations;
    if (!res.converged &&
        relative(res.residual_norm) > kRejectRelResidual) {
      throw Error{"banded Cholesky solve stalled at relative residual " +
                  std::to_string(relative(res.residual_norm)) +
                  " even with refinement — matrix is singular (zero "
                  "pivot within rounding) or numerically unsolvable"};
    }
  }
  if (info != nullptr) *info = local;
}

bool SpdSolver::solve_drifted(const LinearOp& true_op,
                              std::span<const double> b,
                              std::vector<double>& x,
                              SpdSolveInfo* info) {
  DH_REQUIRE(b.size() == n_, "SPD solve dimension mismatch");
  x.clear();
  const CgResult res =
      pcg_solve(true_op, b, *this, x, kDriftRelTolerance, cg_);
  if (info != nullptr) info->cg_iterations = res.iterations;
  const double b_norm = norm2(b);
  const double relative = b_norm > 0.0 ? res.residual_norm / b_norm : 0.0;
  // Same acceptance bound as solve(): a stale-factor refinement that
  // stagnates at its rounding floor but within the contract is a hit,
  // not a reason to refactorize every step.
  return res.converged || relative <= kAcceptRelResidual;
}

}  // namespace dh::math::sparse
