// Engine-level tests for the sparse linear-algebra stack: band stamping,
// PCG, the banded Cholesky factor and the SpdSolver solves — including
// the rejection paths (indefinite, singular) that must raise descriptive
// dh::Error instead of returning garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math/linalg.hpp"
#include "common/math/sparse/cg.hpp"
#include "common/math/sparse/spd_solver.hpp"
#include "common/rng.hpp"

namespace dh::math::sparse {
namespace {

/// An SPD band matrix and the same matrix stored densely.
struct Grid {
  SpdSolver band;
  Matrix dense;
};

/// Stamps a rows x cols 5-point grid Laplacian into both halves of `g`:
/// per-edge weight 1, or uniform in [0.5, 2) when `rng` is given — or,
/// with `decades` > 0, 10^-u with u uniform in [0, decades) — and
/// `ground` added on every diagonal (keeps it SPD).
void stamp(Grid& g, std::size_t rows, std::size_t cols, double ground,
           Rng* rng = nullptr, double decades = 0.0) {
  const auto edge = [&](std::size_t a, std::size_t b) {
    double w = 1.0;
    if (rng != nullptr) {
      w = decades > 0.0 ? std::pow(10.0, -rng->uniform(0.0, decades))
                        : rng->uniform(0.5, 2.0);
    }
    g.band.add_edge(a, b, w);
    g.dense(a, a) += w;
    g.dense(b, b) += w;
    g.dense(a, b) -= w;
    g.dense(b, a) -= w;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      g.band.add_diagonal(i, ground);
      g.dense(i, i) += ground;
      if (c + 1 < cols) edge(i, i + 1);
      if (r + 1 < rows) edge(i, i + cols);
    }
  }
}

Grid grid_laplacian(std::size_t rows, std::size_t cols, double ground,
                    Rng* rng = nullptr, double decades = 0.0) {
  const std::size_t n = rows * cols;
  Grid g{SpdSolver{n, rows > 1 ? cols : 1}, Matrix(n, n, 0.0)};
  stamp(g, rows, cols, ground, rng, decades);
  return g;
}

std::vector<double> random_vector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double relative_residual(const Matrix& a, std::span<const double> x,
                         std::span<const double> b) {
  std::vector<double> r = a.multiply(x);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return norm2(r) / norm2(b);
}

TEST(SpdSolver, BandMultiplyMatchesDense) {
  // solve() prices its residual with the private band product and, when
  // back-substitution misses 1e-10, refines with CG on that product, so a
  // wrong product shows as a needless refinement or as an answer that
  // solves some other system. A well-conditioned grid needs no
  // refinement. A grid grounded by only 1e-9 per node floats ~1e9 above
  // its loads: refinement runs and must end as close to the dense
  // matrix's solution as dense LU does (both sit at the rounding floor
  // |A| |x| eps, far above 1e-10 relative).
  Rng rng{11};
  Grid easy = grid_laplacian(4, 5, 0.3, &rng);
  easy.band.factorize();
  auto rhs = random_vector(20, rng);
  SpdSolveInfo info;
  std::vector<double> x;
  easy.band.solve(rhs, x, &info);
  EXPECT_EQ(info.cg_iterations, 0u);
  EXPECT_LT(relative_residual(easy.dense, x, rhs), 1e-14);

  Grid stiff = grid_laplacian(8, 8, 1e-9, &rng);
  stiff.band.factorize();
  rhs = random_vector(64, rng);
  stiff.band.solve(rhs, x, &info);
  EXPECT_GT(info.cg_iterations, 0u);
  const auto x_lu = solve_dense(stiff.dense, rhs);
  EXPECT_LT(relative_residual(stiff.dense, x, rhs),
            2.0 * relative_residual(stiff.dense, x_lu, rhs));
}

TEST(Direct, BandedCholeskyMatchesDenseLu) {
  Rng rng{7};
  Grid g = grid_laplacian(6, 7, 0.4, &rng);
  g.band.factorize();
  const auto rhs = random_vector(42, rng);
  std::vector<double> x;
  g.band.substitute(rhs, x);
  const auto x_ref = solve_dense(g.dense, rhs);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-11);
  }
}

TEST(Direct, SingularLaplacianRaisesDescriptiveError) {
  // A pure graph Laplacian with no grounding term is exactly singular
  // (constant null vector) — the healing-stack analogue is a PDN with no
  // pad path to VDD.
  Grid g = grid_laplacian(4, 4, 0.0);
  try {
    g.band.factorize();
    FAIL() << "expected dh::Error for singular matrix";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pivot"), std::string::npos) << what;
    EXPECT_NE(what.find("singular"), std::string::npos) << what;
  }
}

TEST(Direct, RejectsEdgeOutsideBand) {
  SpdSolver s{6, 2};
  s.add_edge(0, 2, 1.0);
  EXPECT_THROW(s.add_edge(0, 3, 1.0), Error);
  EXPECT_THROW(s.add_edge(4, 4, 1.0), Error);
  EXPECT_THROW(s.add_diagonal(6, 1.0), Error);
}

TEST(Cg, ZeroRhsReturnsZeroInZeroIterations) {
  Grid g = grid_laplacian(4, 4, 0.3);
  g.band.factorize();
  const LinearOp op = [&](std::span<const double> v,
                          std::vector<double>& y) { y = g.dense.multiply(v); };
  std::vector<double> x;
  CgScratch scratch;
  const CgResult res = pcg_solve(op, std::vector<double>(16, 0.0), g.band, x,
                                 1e-13, scratch);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

TEST(Cg, IndefiniteOperatorRaisesCurvatureError) {
  // The preconditioner is the identity (the factor of I); the operator
  // diag(1, -2) gives the first search direction (1, 1) curvature -1.
  SpdSolver identity{2, 1};
  identity.add_diagonal(0, 1.0);
  identity.add_diagonal(1, 1.0);
  identity.factorize();
  const LinearOp op = [](std::span<const double> v, std::vector<double>& y) {
    y = {v[0], -2.0 * v[1]};
  };
  std::vector<double> x;
  CgScratch scratch;
  try {
    (void)pcg_solve(op, std::vector<double>{1.0, 1.0}, identity, x, 1e-13,
                    scratch);
    FAIL() << "expected dh::Error for indefinite operator";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("positive definite"),
              std::string::npos);
  }
}

TEST(SpdSolver, AllMethodsAgreeWithDenseReference) {
  // 1xN and Nx1 chains (bandwidth 1) and 2-D meshes up to bandwidth 21.
  Rng rng{31};
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 21}, {21, 1}, {6, 21}, {20, 21}};
  for (const auto& [rows, cols] : shapes) {
    Grid g = grid_laplacian(rows, cols, 0.15, &rng);
    const auto rhs = random_vector(rows * cols, rng);
    const auto x_ref = solve_dense(g.dense, rhs);

    g.band.factorize();
    std::vector<double> x;
    g.band.solve(rhs, x);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], x_ref[i], 1e-10) << rows << "x" << cols;
    }
    EXPECT_LT(relative_residual(g.dense, x, rhs), 1e-12);
  }
}

TEST(SpdSolver, RestampingReusesTheSolver) {
  // clear() + re-stamp + factorize() on one solver gives the same bits as
  // a fresh solver stamped with the same conductances.
  Rng rng{3};
  Grid reused = grid_laplacian(5, 6, 0.2, &rng);
  reused.band.factorize();
  reused.band.clear();
  Rng replay_a{4};
  Rng replay_b{4};
  stamp(reused, 5, 6, 0.7, &replay_a);
  reused.band.factorize();
  Grid fresh = grid_laplacian(5, 6, 0.7, &replay_b);
  fresh.band.factorize();
  const auto rhs = random_vector(30, rng);
  std::vector<double> x_reused;
  std::vector<double> x_fresh;
  reused.band.solve(rhs, x_reused);
  fresh.band.solve(rhs, x_fresh);
  EXPECT_EQ(x_reused, x_fresh);
}

TEST(SpdSolver, IndefiniteRaisesDescriptiveError) {
  // Symmetric and invertible, but indefinite: the Cholesky factorization
  // breaks down, and the solver must say why instead of returning garbage.
  SpdSolver s{3, 1};
  s.add_diagonal(0, 1.0);
  s.add_diagonal(1, -3.0);
  s.add_diagonal(2, 1.0);
  s.add_edge(0, 1, 0.5);
  try {
    s.factorize();
    FAIL() << "expected dh::Error for indefinite matrix";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pivot"), std::string::npos) << what;
    EXPECT_NE(what.find("positive definite"), std::string::npos) << what;
  }
}

TEST(SpdSolver, SingularRaisesDescriptiveErrorOnEveryPath) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 21}, {21, 1}, {6, 21}, {20, 21}};
  for (const auto& [rows, cols] : shapes) {
    try {
      Grid g = grid_laplacian(rows, cols, 0.0);
      g.band.factorize();
      std::vector<double> x;
      g.band.solve(std::vector<double>(rows * cols, 1.0), x);
      ADD_FAILURE() << rows << "x" << cols
                    << " ungrounded Laplacian must not solve";
    } catch (const Error& e) {
      EXPECT_NE(std::string{e.what()}.find("singular"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SpdSolver, DriftedSolveRefinesAgainstTrueOperator) {
  Rng rng{41};
  Grid stale = grid_laplacian(10, 10, 0.3, &rng);
  stale.band.factorize();
  // True operator: same structure, all weights 4% higher (EM-style
  // drift within a 5% refactor tolerance).
  Matrix drifted = stale.dense;
  for (std::size_t r = 0; r < drifted.rows(); ++r) {
    for (std::size_t c = 0; c < drifted.cols(); ++c) drifted(r, c) *= 1.04;
  }
  std::vector<double> rhs(100);
  for (auto& v : rhs) v = rng.uniform(0.0, 1.0);

  std::vector<double> x;
  SpdSolveInfo info;
  const bool converged = stale.band.solve_drifted(
      [&](std::span<const double> v, std::vector<double>& y) {
        y = drifted.multiply(v);
      },
      rhs, x, &info);
  EXPECT_TRUE(converged);
  EXPECT_GT(info.cg_iterations, 0u);
  EXPECT_LT(info.cg_iterations, 20u);  // stale factor ~ identity
  const auto x_ref = solve_dense(drifted, rhs);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-10);
  }
}

}  // namespace
}  // namespace dh::math::sparse
