#include "common/math/linalg.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dh::math {
namespace {

TEST(Matrix, BasicAccess) {
  Matrix m(2, 3, 1.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
}

TEST(Matrix, MultiplyVector) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 3.0;
  m(1, 1) = 4.0;
  const std::vector<double> x{1.0, 1.0};
  const auto y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const std::vector<double> b{5.0, 10.0};
  const auto x = solve_dense(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const auto x = solve_dense(a, std::vector<double>{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(solve_dense(a, std::vector<double>{1.0, 2.0}), Error);
}

TEST(Lu, ReusableFactorization) {
  // One matrix against the three unit right-hand sides.
  Matrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i) a(i, i) = 2.0;
  a(0, 1) = a(1, 0) = a(1, 2) = a(2, 1) = -1.0;
  for (int k = 0; k < 3; ++k) {
    std::vector<double> b(3, 0.0);
    b[k] = 1.0;
    const auto x = solve_dense(a, b);
    const auto ax = a.multiply(x);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(ax[i], b[i], 1e-12);
    }
  }
}

/// Property: random diagonally dominant systems solve to tiny residual.
class LuRandom : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandom, ResidualIsSmall) {
  const std::size_t n = GetParam();
  Rng rng{n * 977};
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double offsum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = rng.uniform(-1.0, 1.0);
      offsum += std::abs(a(i, j));
    }
    a(i, i) = offsum + 1.0;
  }
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-5.0, 5.0);
  const auto x = solve_dense(a, b);
  const auto ax = a.multiply(x);
  double resid = 0.0;
  for (std::size_t i = 0; i < n; ++i) resid = std::max(resid, std::abs(ax[i] - b[i]));
  EXPECT_LT(resid, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandom,
                         ::testing::Values(1, 2, 5, 16, 40, 90));

/// Factors the system and solves it once.
std::vector<double> solve_tridiagonal(std::span<const double> lower,
                                      std::span<const double> diag,
                                      std::span<const double> upper,
                                      std::span<const double> rhs) {
  TridiagonalFactor f;
  factor_tridiagonal(lower, diag, upper, f);
  std::vector<double> x(rhs.size());
  solve_tridiagonal(f, rhs, x);
  return x;
}

TEST(Tridiagonal, MatchesDenseSolve) {
  const std::size_t n = 12;
  std::vector<double> lower(n - 1), diag(n), upper(n - 1), rhs(n);
  Rng rng{5};
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = rng.uniform(2.0, 4.0);
    rhs[i] = rng.uniform(-1.0, 1.0);
    a(i, i) = diag[i];
    if (i + 1 < n) {
      lower[i] = rng.uniform(-1.0, 1.0);
      upper[i] = rng.uniform(-1.0, 1.0);
      a(i + 1, i) = lower[i];
      a(i, i + 1) = upper[i];
    }
  }
  const auto x_tri = solve_tridiagonal(lower, diag, upper, rhs);
  const auto x_dense = solve_dense(a, rhs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_tri[i], x_dense[i], 1e-10);
  }
}

TEST(Tridiagonal, SingleElement) {
  const auto x = solve_tridiagonal({}, std::vector<double>{4.0}, {},
                                   std::vector<double>{8.0});
  ASSERT_EQ(x.size(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Tridiagonal, SizeMismatchThrows) {
  EXPECT_THROW(solve_tridiagonal(std::vector<double>{1.0},
                                 std::vector<double>{1.0},
                                 std::vector<double>{},
                                 std::vector<double>{1.0}),
               Error);
  TridiagonalFactor f;
  factor_tridiagonal(std::vector<double>{1.0}, std::vector<double>{4.0, 4.0},
                     std::vector<double>{1.0}, f);
  std::vector<double> x(2);
  EXPECT_THROW(solve_tridiagonal(f, std::vector<double>{1.0}, x), Error);
  EXPECT_THROW(solve_tridiagonal(f, std::vector<double>{1.0, 2.0, 3.0}, x),
               Error);
}

TEST(Tridiagonal, PivotUnderflowThrows) {
  TridiagonalFactor f;
  // A zero first pivot.
  EXPECT_THROW(factor_tridiagonal(std::vector<double>{1.0},
                                  std::vector<double>{0.0, 2.0},
                                  std::vector<double>{1.0}, f),
               Error);
  // A pivot that cancels to zero in elimination: [[1, 1], [1, 1]].
  EXPECT_THROW(factor_tridiagonal(std::vector<double>{1.0},
                                  std::vector<double>{1.0, 1.0},
                                  std::vector<double>{1.0}, f),
               Error);
  // A NaN pivot.
  EXPECT_THROW(factor_tridiagonal(std::vector<double>{0.0},
                                  std::vector<double>{1.0, std::nan("")},
                                  std::vector<double>{0.0}, f),
               Error);
}

TEST(Tridiagonal, ReusedFactorMatchesFreshFactorBitForBit) {
  // Diagonally dominant systems like the Korhonen solver's, some with a
  // Dirichlet row (diag 1, zero off-diagonal) at either end, each factored
  // once and solved against many right-hand sides. Every solution must
  // have the bits of a fresh factor-and-solve of the same system, in a
  // separate output and in place.
  Rng rng{17};
  for (const std::size_t n : {1u, 2u, 3u, 7u, 60u}) {
    for (int ends = 0; ends < 4; ++ends) {
      std::vector<double> lower(n - 1), diag(n), upper(n - 1);
      for (std::size_t i = 0; i < n; ++i) {
        const double left = i > 0 ? rng.uniform(0.0, 1e6) : 0.0;
        const double right = i + 1 < n ? rng.uniform(0.0, 1e6) : 0.0;
        diag[i] = rng.uniform(1e-3, 1.0) + left + right;
        if (i > 0) lower[i - 1] = -left;
        if (i + 1 < n) upper[i] = -right;
      }
      if ((ends & 1) != 0) {
        diag[0] = 1.0;
        if (n > 1) upper[0] = 0.0;
      }
      if ((ends & 2) != 0 && n > 1) {
        diag[n - 1] = 1.0;
        lower[n - 2] = 0.0;
      }
      TridiagonalFactor kept;
      factor_tridiagonal(lower, diag, upper, kept);
      for (int r = 0; r < 25; ++r) {
        std::vector<double> rhs(n);
        for (double& v : rhs) v = rng.uniform(-1e9, 1e9);
        const auto fresh = solve_tridiagonal(lower, diag, upper, rhs);
        std::vector<double> x(n);
        solve_tridiagonal(kept, rhs, x);
        std::vector<double> in_place = rhs;
        solve_tridiagonal(kept, in_place, in_place);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                    std::bit_cast<std::uint64_t>(fresh[i]))
              << "n " << n << " ends " << ends << " rhs " << r << " i " << i;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(in_place[i]),
                    std::bit_cast<std::uint64_t>(fresh[i]))
              << "n " << n << " ends " << ends << " rhs " << r << " i " << i;
        }
      }
    }
  }
}

TEST(Norms, KnownValues) {
  const std::vector<double> v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
}

}  // namespace
}  // namespace dh::math
