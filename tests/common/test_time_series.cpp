#include "common/time_series.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace dh {
namespace {

TimeSeries ramp() {
  TimeSeries s{"ramp", "V"};
  s.append(Seconds{0.0}, 0.0);
  s.append(Seconds{10.0}, 1.0);
  s.append(Seconds{20.0}, 3.0);
  return s;
}

TEST(TimeSeries, AppendAndAccess) {
  const TimeSeries s = ramp();
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.empty());
  EXPECT_DOUBLE_EQ(s.time_at(1).value(), 10.0);
  EXPECT_DOUBLE_EQ(s.value_at(2), 3.0);
  EXPECT_DOUBLE_EQ(s.front_value(), 0.0);
  EXPECT_DOUBLE_EQ(s.back_value(), 3.0);
}

TEST(TimeSeries, RejectsOutOfOrderAppend) {
  TimeSeries s;
  s.append(Seconds{5.0}, 1.0);
  EXPECT_THROW(s.append(Seconds{4.0}, 2.0), Error);
  // Equal timestamps are allowed (phase boundaries).
  EXPECT_NO_THROW(s.append(Seconds{5.0}, 3.0));
}

TEST(TimeSeries, RejectsNaNTime) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const TimeSeries s = ramp();
  EXPECT_THROW((void)s.sample(Seconds{nan}), Error);

  // A NaN first sample must not poison the series for later appends.
  TimeSeries fresh;
  EXPECT_THROW(fresh.append(Seconds{nan}, 1.0), Error);
  EXPECT_TRUE(fresh.empty());
  EXPECT_NO_THROW(fresh.append(Seconds{1.0}, 2.0));
  EXPECT_THROW(fresh.append(Seconds{nan}, 3.0), Error);
  EXPECT_EQ(fresh.size(), 1u);
}

TEST(TimeSeries, LinearSampling) {
  const TimeSeries s = ramp();
  EXPECT_DOUBLE_EQ(s.sample(Seconds{5.0}), 0.5);
  EXPECT_DOUBLE_EQ(s.sample(Seconds{15.0}), 2.0);
  // Clamped outside the range.
  EXPECT_DOUBLE_EQ(s.sample(Seconds{-1.0}), 0.0);
  EXPECT_DOUBLE_EQ(s.sample(Seconds{99.0}), 3.0);

  // A repeated time is a step: inside the range the later sample wins.
  TimeSeries step{"step", "V"};
  step.append(Seconds{0.0}, 0.0);
  step.append(Seconds{10.0}, 1.0);
  step.append(Seconds{10.0}, 5.0);
  step.append(Seconds{20.0}, 7.0);
  EXPECT_DOUBLE_EQ(step.sample(Seconds{5.0}), 0.5);
  EXPECT_DOUBLE_EQ(step.sample(Seconds{10.0}), 5.0);
  EXPECT_DOUBLE_EQ(step.sample(Seconds{15.0}), 6.0);
  EXPECT_DOUBLE_EQ(step.sample(Seconds{20.0}), 7.0);

  // One sample is a constant.
  TimeSeries one{"one", "V"};
  one.append(Seconds{3.0}, 2.5);
  for (const double t : {-1.0, 3.0, 99.0}) {
    EXPECT_DOUBLE_EQ(one.sample(Seconds{t}), 2.5);
  }
  EXPECT_THROW(
      (void)one.sample(Seconds{std::numeric_limits<double>::quiet_NaN()}),
      Error);
}

TEST(TimeSeries, MinMax) {
  const TimeSeries s = ramp();
  EXPECT_DOUBLE_EQ(s.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 3.0);
}

TEST(TimeSeries, Resample) {
  const TimeSeries s = ramp();
  const TimeSeries r = s.resampled(5);
  EXPECT_EQ(r.size(), 5u);
  EXPECT_DOUBLE_EQ(r.front_time().value(), 0.0);
  EXPECT_DOUBLE_EQ(r.back_time().value(), 20.0);
  EXPECT_DOUBLE_EQ(r.value_at(2), s.sample(Seconds{10.0}));
}

TEST(TimeSeries, Scaled) {
  const TimeSeries s = ramp().scaled(2.0);
  EXPECT_DOUBLE_EQ(s.back_value(), 6.0);
  EXPECT_EQ(s.size(), 3u);
}

TEST(TimeSeries, PrintTableAlignsRows) {
  std::ostringstream os;
  print_series_table(os, {ramp()}, 3);
  // Three data rows expected (header + 3).
  int lines = 0;
  for (const char c : os.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);
}

TEST(TimeSeries, EmptyAccessorsThrow) {
  const TimeSeries s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.front_value(), Error);
  EXPECT_THROW((void)s.min_value(), Error);
  EXPECT_THROW((void)s.sample(Seconds{0.0}), Error);
}

}  // namespace
}  // namespace dh
