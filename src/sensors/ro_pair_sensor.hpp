// Ring-oscillator-pair BTI sensor.
//
// The paper's run-time scheduling (Fig. 12b) needs on-chip wearout
// tracking: "novel BTI and EM sensors can be employed to track wearout
// and feed back the run-time degradation information". The standard BTI
// sensor is a pair of matched ring oscillators: one *stressed* alongside
// the logic it shadows, one *reference* kept in recovery/power-gated so it
// stays fresh. The beat between their frequencies cancels common-mode
// variation (temperature, supply) and reads out the Vth shift directly.
#pragma once

#include "common/rng.hpp"
#include "device/bti_model.hpp"
#include "device/compact_bti.hpp"
#include "device/ring_oscillator.hpp"

namespace dh::sensors {

/// Both ROs are the paper's 75-stage RO (RingOscillatorParams{}), read
/// with a 0.01 s counter gate and 1e-4 relative mismatch noise.
class RoPairSensor {
 public:
  explicit RoPairSensor(Rng rng);

  /// Age the sensor alongside the logic it shadows: the stressed RO sees
  /// the logic's duty, the reference RO spends the quantum healing.
  void step(double stress_duty, Volts supply_bias, Celsius temperature,
            Seconds dt);

  /// One differential measurement: apparent Vth shift of the stressed RO
  /// relative to the reference.
  [[nodiscard]] Volts measure();

  /// Ground truth (for tests/benches).
  [[nodiscard]] Volts true_dvth() const;

 private:
  device::RingOscillator ro_;
  device::CompactBti stressed_;
  device::CompactBti reference_;
  Rng rng_;

  [[nodiscard]] double quantized_frequency(const device::CompactBti& dev);
};

}  // namespace dh::sensors
