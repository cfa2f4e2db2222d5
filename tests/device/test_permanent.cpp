#include "device/permanent.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "device/calibration.hpp"

namespace dh::device {
namespace {

PermanentComponent make_pc() {
  return PermanentComponent{
      paper_calibrated_bti_params().gen_rate_ref_v_per_s};
}

TEST(Permanent, FreshIsZero) {
  const PermanentComponent pc = make_pc();
  EXPECT_DOUBLE_EQ(pc.total().value(), 0.0);
}

TEST(Permanent, StressGeneratesPrecursors) {
  PermanentComponent pc = make_pc();
  pc.apply(paper_conditions::accelerated_stress(), hours(1.0));
  EXPECT_GT(pc.unlocked().value(), 0.0);
}

TEST(Permanent, SustainedStressLocksIn) {
  PermanentComponent pc = make_pc();
  pc.apply(paper_conditions::accelerated_stress(), hours(24.0));
  // After 24 h most of the generated population must be locked (that is
  // the Table I > 27% permanent story).
  EXPECT_GT(pc.locked().value(), 5.0 * pc.unlocked().value());
}

TEST(Permanent, ShortStressLocksAlmostNothing) {
  PermanentComponent pc = make_pc();
  pc.apply(paper_conditions::accelerated_stress(), hours(1.0));
  EXPECT_LT(pc.locked().value(), 0.15 * pc.unlocked().value());
}

TEST(Permanent, ActiveRecoveryAnnealsPrecursors) {
  PermanentComponent pc = make_pc();
  pc.apply(paper_conditions::accelerated_stress(), hours(1.0));
  const double before = pc.unlocked().value();
  pc.apply(paper_conditions::recovery_no4(), hours(3.0));
  EXPECT_LT(pc.unlocked().value(), 0.1 * before);
}

TEST(Permanent, RoomTemperatureRecoveryBarelyAnneals) {
  PermanentComponent pc = make_pc();
  pc.apply(paper_conditions::accelerated_stress(), hours(1.0));
  const double before = pc.unlocked().value();
  pc.apply(paper_conditions::recovery_no1(), hours(6.0));
  EXPECT_GT(pc.unlocked().value(), 0.95 * before);
}

TEST(Permanent, LockedComponentSurvivesDeepRecovery) {
  PermanentComponent pc = make_pc();
  pc.apply(paper_conditions::accelerated_stress(), hours(24.0));
  const double locked_before = pc.locked().value();
  pc.apply(paper_conditions::recovery_no4(), hours(24.0));
  EXPECT_GT(pc.locked().value(), 0.9 * locked_before);
}

TEST(Permanent, SaturatesAtPmax) {
  PermanentComponent pc = make_pc();
  pc.apply(paper_conditions::accelerated_stress(), hours(10000.0));
  // P_max, a constant in permanent.cpp.
  constexpr double kPMaxV = 0.060;
  EXPECT_LE(pc.total().value(), kPMaxV * (1.0 + 1e-6));
}

TEST(Permanent, ResetClearsState) {
  PermanentComponent pc = make_pc();
  pc.apply(paper_conditions::accelerated_stress(), hours(24.0));
  pc.reset();
  EXPECT_DOUBLE_EQ(pc.total().value(), 0.0);
}

TEST(Permanent, GenerationScalesWithVoltage) {
  PermanentComponent lo = make_pc();
  PermanentComponent hi = make_pc();
  lo.apply({Volts{0.9}, Celsius{110.0}}, hours(2.0));
  hi.apply({Volts{1.2}, Celsius{110.0}}, hours(2.0));
  EXPECT_GT(hi.total().value(), lo.total().value());
}

TEST(Permanent, GenerationScalesWithTemperature) {
  PermanentComponent cold = make_pc();
  PermanentComponent hot = make_pc();
  cold.apply({Volts{1.2}, Celsius{50.0}}, hours(2.0));
  hot.apply({Volts{1.2}, Celsius{110.0}}, hours(2.0));
  EXPECT_GT(hot.total().value(), cold.total().value());
}

TEST(Permanent, InvalidParamsRejected) {
  // The generation rate is the one parameter; P_max > 0 is a static_assert.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double rate :
       {-1e-9, kInf, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(PermanentComponent{rate}, Error) << rate;
  }
  EXPECT_NO_THROW(PermanentComponent{0.0});
}

}  // namespace
}  // namespace dh::device
