#include "device/bti_sensor.hpp"

#include <cmath>

namespace dh::device {

namespace {

constexpr double kGateTimeS = 0.1;       // counter gate
constexpr double kRelativeNoise = 2e-4;  // supply/temperature-induced jitter
static_assert(kGateTimeS > 0.0 && kRelativeNoise >= 0.0,
              "gate time must be positive and noise non-negative");

}  // namespace

BtiSensor::BtiSensor(RingOscillator ro, Rng rng) : ro_(ro), rng_(rng) {}

Hertz BtiSensor::measure_frequency(const BtiModel& device) {
  const double truth =
      ro_.frequency(device.delta_vth(), device.mobility_factor()).value();
  const double noisy = truth * (1.0 + rng_.normal(0.0, kRelativeNoise));
  // Counter quantization: counts within one gate period.
  const double resolution = 1.0 / kGateTimeS;
  const double quantized = std::round(noisy / resolution) * resolution;
  return Hertz{quantized};
}

Volts BtiSensor::measure_delta_vth(const BtiModel& device) {
  return ro_.infer_delta_vth(measure_frequency(device));
}

}  // namespace dh::device
