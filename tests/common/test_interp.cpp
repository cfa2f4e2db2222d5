#include "common/math/interp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace dh::math {
namespace {

TEST(Interp, LinearInterpolation) {
  const std::vector<double> xs{0.0, 1.0, 3.0};
  const std::vector<double> ys{0.0, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 2.0), 4.0);
  // Clamped.
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, -5.0), 0.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 10.0), 6.0);
}

TEST(Interp, RejectsMismatchedTables) {
  EXPECT_THROW((void)interp_linear(std::vector<double>{0.0, 1.0},
                                   std::vector<double>{0.0}, 0.5),
               Error);
}

TEST(Interp, RejectsNaN) {
  const std::vector<double> xs{0.0, 1.0, 3.0};
  const std::vector<double> ys{0.0, 2.0, 6.0};
  EXPECT_THROW((void)interp_linear(xs, ys, std::nan("")), Error);
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto xs = linspace(1.0, 3.0, 5);
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_DOUBLE_EQ(xs.front(), 1.0);
  EXPECT_DOUBLE_EQ(xs.back(), 3.0);
  EXPECT_DOUBLE_EQ(xs[1] - xs[0], 0.5);
}

TEST(StretchedGrid, CoversIntervalAndGrows) {
  const auto xs = stretched_grid(0.0, 100.0, 1.0, 1.5);
  EXPECT_DOUBLE_EQ(xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(xs.back(), 100.0);
  ASSERT_GE(xs.size(), 4u);
  for (std::size_t i = 1; i < xs.size(); ++i) {
    EXPECT_GT(xs[i], xs[i - 1]);
  }
  // Interior cells grow geometrically.
  const double d0 = xs[1] - xs[0];
  const double d1 = xs[2] - xs[1];
  EXPECT_NEAR(d1 / d0, 1.5, 1e-9);
}

TEST(StretchedGrid, UnitRatioIsUniform) {
  const auto xs = stretched_grid(0.0, 10.0, 1.0, 1.0);
  for (std::size_t i = 1; i + 1 < xs.size(); ++i) {
    EXPECT_NEAR(xs[i] - xs[i - 1], 1.0, 1e-9);
  }
}

TEST(StretchedGrid, RejectsBadParams) {
  EXPECT_THROW(stretched_grid(1.0, 0.0, 0.1, 1.2), Error);
  EXPECT_THROW(stretched_grid(0.0, 1.0, -0.1, 1.2), Error);
  EXPECT_THROW(stretched_grid(0.0, 1.0, 0.1, 0.5), Error);
}

}  // namespace
}  // namespace dh::math
