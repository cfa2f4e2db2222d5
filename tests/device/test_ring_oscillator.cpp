#include "device/ring_oscillator.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"

namespace dh::device {
namespace {

RingOscillator make_ro() { return RingOscillator{RingOscillatorParams{}}; }

TEST(RingOscillator, FreshFrequencyAtZeroShift) {
  const RingOscillator ro = make_ro();
  EXPECT_DOUBLE_EQ(ro.frequency(Volts{0.0}).value(),
                   ro.params().fresh_frequency.value());
  EXPECT_DOUBLE_EQ(ro.degradation(Volts{0.0}), 0.0);
}

TEST(RingOscillator, FrequencyDropsWithVthShift) {
  const RingOscillator ro = make_ro();
  double prev = ro.frequency(Volts{0.0}).value();
  for (double dv = 0.01; dv < 0.2; dv += 0.01) {
    const double f = ro.frequency(Volts{dv}).value();
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(RingOscillator, MobilityScalesFrequencyLinearly) {
  const RingOscillator ro = make_ro();
  const double f_full = ro.frequency(Volts{0.02}, 1.0).value();
  const double f_half = ro.frequency(Volts{0.02}, 0.5).value();
  EXPECT_NEAR(f_half, 0.5 * f_full, 1e-9 * f_full);
}

TEST(RingOscillator, LowerSupplySlows) {
  const RingOscillator ro = make_ro();
  const double f_nom = ro.frequency(Volts{0.0}).value();
  const double f_low =
      ro.frequency_at(Volts{0.9}, Volts{0.0}).value();
  EXPECT_LT(f_low, f_nom);
}

TEST(RingOscillator, InferDeltaVthRoundTrip) {
  const RingOscillator ro = make_ro();
  const double overdrive0 =
      ro.params().vdd.value() - ro.params().vth0.value();
  for (const double dv : {0.0, 0.005, 0.02, 0.05, 0.1, 0.949 * overdrive0}) {
    const Hertz f = ro.frequency(Volts{dv});
    EXPECT_NEAR(ro.infer_delta_vth(f).value(), dv, 1e-12) << dv;
  }
}

TEST(RingOscillator, InferClampsAboveFreshFrequency) {
  const RingOscillator ro = make_ro();
  const Hertz above{ro.params().fresh_frequency.value() * 1.01};
  EXPECT_DOUBLE_EQ(ro.infer_delta_vth(above).value(), 0.0);
  EXPECT_DOUBLE_EQ(
      ro.infer_delta_vth(Hertz{std::numeric_limits<double>::infinity()})
          .value(),
      0.0);
}

TEST(RingOscillator, InferRejectsUnreadableFrequencies) {
  const RingOscillator ro = make_ro();
  const double overdrive0 =
      ro.params().vdd.value() - ro.params().vth0.value();
  const Hertz floor = ro.frequency(Volts{0.95 * overdrive0});
  for (const double f :
       {0.99 * floor.value(), 0.0, -1e6,
        std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)ro.infer_delta_vth(Hertz{f}), Error) << f;
  }
}

TEST(RingOscillator, RejectsInvalidConfigs) {
  RingOscillatorParams p;
  p.vth0 = p.vdd;  // no overdrive
  EXPECT_THROW(RingOscillator{p}, Error);
  p = RingOscillatorParams{};
  p.alpha = 3.0;  // out of physical range
  EXPECT_THROW(RingOscillator{p}, Error);
}

TEST(RingOscillator, ThrowsWhenDeviceCannotSwitch) {
  const RingOscillator ro = make_ro();
  const double overdrive =
      ro.params().vdd.value() - ro.params().vth0.value();
  EXPECT_THROW((void)ro.frequency(Volts{overdrive + 0.01}), Error);
}

TEST(RingOscillator, PaperScaleDegradation) {
  // A ~74 mV accelerated-stress shift on the 40nm-class RO should cost a
  // clearly measurable but single-digit-percent frequency loss.
  const RingOscillator ro = make_ro();
  const double deg = ro.degradation(Volts{0.074});
  EXPECT_GT(deg, 0.02);
  EXPECT_LT(deg, 0.25);
}

}  // namespace
}  // namespace dh::device
