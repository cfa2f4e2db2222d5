#include "em/em_sensor.hpp"

#include <cmath>

namespace dh::em {

namespace {

constexpr double kRelativeNoise = 5e-4;  // contact/thermal noise
constexpr double kResolutionOhm = 0.01;  // meter quantization
static_assert(kResolutionOhm > 0.0, "meter resolution must be positive");

}  // namespace

EmSensor::EmSensor(Rng rng) : rng_(rng) {}

Ohms EmSensor::measure(Ohms r) {
  const double noisy = r.value() * (1.0 + rng_.normal(0.0, kRelativeNoise));
  return Ohms{std::round(noisy / kResolutionOhm) * kResolutionOhm};
}

}  // namespace dh::em
