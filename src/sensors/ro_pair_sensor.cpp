#include "sensors/ro_pair_sensor.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"

namespace dh::sensors {

namespace {

constexpr double kGateTimeS = 0.01;      // counter gate (quantization)
constexpr double kRelativeNoise = 1e-4;  // residual mismatch noise
constexpr Volts kRecoveryBias{-0.3};     // reference RO healing bias
static_assert(kGateTimeS > 0.0, "counter gate time must be positive");

}  // namespace

RoPairSensor::RoPairSensor(Rng rng)
    : ro_(device::RingOscillatorParams{}), rng_(rng) {}

void RoPairSensor::step(double stress_duty, Volts supply_bias,
                        Celsius temperature, Seconds dt) {
  DH_REQUIRE(stress_duty >= 0.0 && stress_duty <= 1.0,
             "stress duty must be in [0,1]");
  // The reference RO spends the whole quantum in active recovery, so it
  // stays effectively fresh for the sensor's lifetime. One batch checks
  // both jobs before either RO moves.
  const Seconds on{dt.value() * stress_duty};
  const Seconds off{dt.value() * (1.0 - stress_duty)};
  const std::array<device::BtiJob, 2> jobs{
      {{&stressed_, {supply_bias, temperature}, on, {Volts{0.0}, temperature},
        off},
       {&reference_, {kRecoveryBias, temperature}, dt}}};
  device::CompactBti::apply_batch(jobs);
}

double RoPairSensor::quantized_frequency(const device::CompactBti& dev) {
  const double truth = ro_.frequency(dev.delta_vth()).value();
  const double noisy = truth * (1.0 + rng_.normal(0.0, kRelativeNoise));
  const double resolution = 1.0 / kGateTimeS;
  return std::round(noisy / resolution) * resolution;
}

Volts RoPairSensor::measure() {
  const double f_stressed = quantized_frequency(stressed_);
  const double f_reference = quantized_frequency(reference_);
  // Invert the differential readout through the RO model: the reference
  // defines "fresh" even if the absolute frequency drifted.
  const double scale =
      ro_.params().fresh_frequency.value() / std::max(f_reference, 1.0);
  return ro_.infer_delta_vth(Hertz{f_stressed * scale});
}

Volts RoPairSensor::true_dvth() const {
  return stressed_.delta_vth() - reference_.delta_vth();
}

}  // namespace dh::sensors
