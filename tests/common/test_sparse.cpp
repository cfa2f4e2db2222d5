// Engine-level tests for the sparse linear-algebra stack: CSR assembly,
// PCG, the banded Cholesky factor, and the SpdSolver facade — including
// the rejection paths (asymmetric, indefinite, singular) that must raise
// descriptive dh::Error instead of returning garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math/linalg.hpp"
#include "common/math/sparse/cg.hpp"
#include "common/math/sparse/csr.hpp"
#include "common/math/sparse/direct.hpp"
#include "common/math/sparse/spd_solver.hpp"
#include "common/rng.hpp"

namespace dh::math::sparse {
namespace {

/// Laplacian of a rows x cols 5-point grid with per-edge weight `g_fn`
/// and `ground` added on every diagonal (keeps it SPD).
CsrMatrix grid_laplacian(std::size_t rows, std::size_t cols, double ground,
                         Rng* rng = nullptr) {
  CsrBuilder b(rows * cols, rows * cols, 5);
  const auto weight = [&] {
    return rng != nullptr ? rng->uniform(0.5, 2.0) : 1.0;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      b.add_diagonal(i, ground);
      if (c + 1 < cols) b.add_edge(i, i + 1, weight());
      if (r + 1 < rows) b.add_edge(i, i + cols, weight());
    }
  }
  return b.build();
}

TEST(Csr, BuilderSortsAndMergesDuplicates) {
  CsrBuilder b(3, 3);
  b.add(0, 2, 1.0);
  b.add(0, 0, 2.0);
  b.add(0, 2, 3.0);  // duplicate accumulates
  b.add(1, 1, 5.0);
  b.add(2, 0, -1.0);
  b.add(2, 2, 4.0);
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), -1.0);
  // Columns sorted within each row.
  EXPECT_EQ(m.col_idx()[0], 0u);
  EXPECT_EQ(m.col_idx()[1], 2u);
}

TEST(Csr, MultiplyMatchesDense) {
  Rng rng{11};
  const CsrMatrix m = grid_laplacian(4, 5, 0.3, &rng);
  const Matrix dense = m.to_dense();
  std::vector<double> x(m.cols());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const auto y_sparse = m.multiply(x);
  const auto y_dense = dense.multiply(x);
  for (std::size_t i = 0; i < y_sparse.size(); ++i) {
    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-14);
  }
}

TEST(Csr, StructureQueries) {
  const CsrMatrix m = grid_laplacian(3, 4, 0.1);
  EXPECT_TRUE(m.is_symmetric());
  EXPECT_EQ(m.bandwidth(), 4u);  // i couples to i+cols
  CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 3.0);  // != A(0,1)
  b.add(1, 1, 1.0);
  EXPECT_FALSE(b.build().is_symmetric());
}

TEST(Direct, BandedCholeskyMatchesDenseLu) {
  Rng rng{7};
  const CsrMatrix a = grid_laplacian(6, 7, 0.4, &rng);
  const BandedCholesky chol{a};
  EXPECT_EQ(chol.band(), 7u);
  std::vector<double> rhs(a.rows());
  for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);
  std::vector<double> x;
  chol.solve(rhs, x);
  const auto x_ref = solve_dense(a.to_dense(), rhs);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-11);
  }
}

TEST(Direct, SingularLaplacianRaisesDescriptiveError) {
  // A pure graph Laplacian with no grounding term is exactly singular
  // (constant null vector) — the healing-stack analogue is a PDN with no
  // pad path to VDD.
  const CsrMatrix a = grid_laplacian(4, 4, 0.0);
  try {
    const BandedCholesky chol{a};
    FAIL() << "expected dh::Error for singular matrix";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pivot"), std::string::npos) << what;
    EXPECT_NE(what.find("singular"), std::string::npos) << what;
  }
}

TEST(Cg, ZeroRhsReturnsZeroInZeroIterations) {
  const CsrMatrix a = grid_laplacian(4, 4, 0.3);
  const LinearOp op = [&](std::span<const double> v,
                          std::vector<double>& y) { a.multiply(v, y); };
  std::vector<double> x;
  const CgResult res =
      pcg_solve(op, std::vector<double>(a.rows(), 0.0),
                IdentityPreconditioner{}, x, 1e-13);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

TEST(Cg, IndefiniteOperatorRaisesCurvatureError) {
  CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, -2.0);
  const CsrMatrix a = b.build();
  const LinearOp op = [&](std::span<const double> v,
                          std::vector<double>& y) { a.multiply(v, y); };
  std::vector<double> x;
  try {
    (void)pcg_solve(op, std::vector<double>{1.0, 1.0},
                    IdentityPreconditioner{}, x, 1e-13);
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
    const CsrMatrix a = grid_laplacian(rows, cols, 0.15, &rng);
    std::vector<double> rhs(a.rows());
    for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);
    const auto x_ref = solve_dense(a.to_dense(), rhs);

    const SpdSolver solver{a};
    SpdSolveInfo info;
    const auto x = solver.solve(rhs, &info);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], x_ref[i], 1e-10) << rows << "x" << cols;
    }
    EXPECT_LT(info.relative_residual, 1e-12);
  }
}

TEST(SpdSolver, RejectsAsymmetricAssembly) {
  CsrBuilder b(3, 3);
  b.add(0, 0, 2.0);
  b.add(1, 1, 2.0);
  b.add(2, 2, 2.0);
  b.add(0, 1, -1.0);  // no mirror entry
  try {
    const SpdSolver solver{b.build()};
    FAIL() << "expected dh::Error for asymmetric matrix";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("symmetric"), std::string::npos);
  }
}

TEST(SpdSolver, IndefiniteRaisesDescriptiveError) {
  // Symmetric and invertible, but indefinite: the Cholesky factorization
  // breaks down, and the solver must say why instead of returning garbage.
  CsrBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(1, 1, -3.0);
  b.add(2, 2, 1.0);
  b.add_edge(0, 1, 0.5);
  try {
    const SpdSolver solver{b.build()};
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
      const SpdSolver solver{grid_laplacian(rows, cols, 0.0)};
      (void)solver.solve(std::vector<double>(rows * cols, 1.0));
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
  const CsrMatrix stale = grid_laplacian(10, 10, 0.3, &rng);
  // True operator: same structure, all weights 4% higher (EM-style
  // drift within a 5% refactor tolerance).
  CsrMatrix drifted = stale;
  for (auto& v : drifted.values()) v *= 1.04;
  std::vector<double> rhs(stale.rows());
  for (auto& v : rhs) v = rng.uniform(0.0, 1.0);

  const SpdSolver solver{stale};
  std::vector<double> x;
  SpdSolveInfo info;
  const bool converged = solver.solve_drifted(
      [&](std::span<const double> v, std::vector<double>& y) {
        drifted.multiply(v, y);
      },
      rhs, x, &info);
  EXPECT_TRUE(converged);
  EXPECT_GT(info.cg_iterations, 0u);
  EXPECT_LT(info.cg_iterations, 20u);  // stale factor ~ identity
  const auto x_ref = solve_dense(drifted.to_dense(), rhs);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-10);
  }
}

}  // namespace
}  // namespace dh::math::sparse
