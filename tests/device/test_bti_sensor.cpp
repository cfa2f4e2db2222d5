#include "device/bti_sensor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "device/calibration.hpp"

namespace dh::device {
namespace {

BtiSensor make_sensor(std::uint64_t seed = 1) {
  RingOscillatorParams rop;
  rop.vdd = Volts{1.1};
  return BtiSensor{RingOscillator{rop}, Rng{seed}};
}

TEST(BtiSensor, MeasurementNearTruth) {
  BtiSensor sensor = make_sensor();
  auto device = BtiModel::paper_calibrated();
  device.apply(paper_conditions::accelerated_stress(), hours(24.0));
  const double truth = device.delta_vth().value();
  const double measured = sensor.measure_delta_vth(device).value();
  // The frequency readout folds mobility degradation into its apparent
  // Vth shift, so a ~20% systematic overestimate is expected.
  EXPECT_NEAR(measured, truth, 0.25 * truth);
}

TEST(BtiSensor, QuantizationRespectsGateTime) {
  // The 0.1 s counter gate resolves 10 Hz; noise comes before counting.
  BtiSensor sensor = make_sensor(3);
  const auto device = BtiModel::paper_calibrated();
  for (int i = 0; i < 20; ++i) {
    const double f = sensor.measure_frequency(device).value();
    EXPECT_NEAR(std::fmod(f, 10.0), 0.0, 1e-6);
  }
}

TEST(BtiSensor, DeterministicForSameSeed) {
  auto device = BtiModel::paper_calibrated();
  device.apply(paper_conditions::accelerated_stress(), hours(2.0));
  BtiSensor a = make_sensor(42);
  BtiSensor b = make_sensor(42);
  EXPECT_DOUBLE_EQ(a.measure_frequency(device).value(),
                   b.measure_frequency(device).value());
}

TEST(BtiSensor, NoiseStaysBounded) {
  BtiSensor sensor = make_sensor(5);
  const auto device = BtiModel::paper_calibrated();
  const double f0 = sensor.oscillator().params().fresh_frequency.value();
  for (int i = 0; i < 200; ++i) {
    const double f = sensor.measure_frequency(device).value();
    EXPECT_NEAR(f, f0, 0.002 * f0);
  }
}

TEST(BtiSensor, FreshDeviceReadsNearZeroShift) {
  BtiSensor sensor = make_sensor(9);
  const auto device = BtiModel::paper_calibrated();
  EXPECT_LT(sensor.measure_delta_vth(device).value(), 0.002);
}

}  // namespace
}  // namespace dh::device
