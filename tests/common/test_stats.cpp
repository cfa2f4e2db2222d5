#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dh::stats {
namespace {

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 4.571428571, 1e-8);
  EXPECT_NEAR(stddev(xs), std::sqrt(4.571428571), 1e-8);
}

TEST(Stats, MedianAndPercentiles) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
  // Interpolated percentile.
  EXPECT_DOUBLE_EQ(percentile(xs, 0.1), 1.4);
}

TEST(Stats, PercentileIgnoresInputOrder) {
  const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Stats, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW((void)mean(empty), dh::Error);
  EXPECT_THROW((void)percentile(empty, 0.5), dh::Error);
  EXPECT_THROW((void)variance(std::vector<double>{1.0}), dh::Error);
}

TEST(InverseNormal, KnownQuantiles) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.8413447), 1.0, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.0227501), -2.0, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.99865), 3.0, 1e-3);
}

TEST(InverseNormal, RejectsBoundaries) {
  EXPECT_THROW((void)inverse_normal_cdf(0.0), dh::Error);
  EXPECT_THROW((void)inverse_normal_cdf(1.0), dh::Error);
}

TEST(Lognormal, FitRecoversParameters) {
  dh::Rng rng{31};
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(rng.lognormal(2.0, 0.4));
  }
  const LognormalFit fit = fit_lognormal(samples);
  EXPECT_NEAR(fit.mu, 2.0, 0.02);
  EXPECT_NEAR(fit.sigma, 0.4, 0.02);
  EXPECT_NEAR(fit.t50(), std::exp(2.0), 0.2);
}

TEST(Lognormal, QuantilesAreOrdered) {
  const LognormalFit fit{.mu = 1.0, .sigma = 0.3};
  EXPECT_LT(fit.quantile(0.01), fit.quantile(0.5));
  EXPECT_LT(fit.quantile(0.5), fit.quantile(0.99));
  EXPECT_NEAR(fit.quantile(0.5), fit.t50(), 1e-9);
}

TEST(Lognormal, RejectsNonPositiveSamples) {
  EXPECT_THROW((void)fit_lognormal(std::vector<double>{1.0, -2.0}),
               dh::Error);
}

}  // namespace
}  // namespace dh::stats
