// Frequency-counter BTI sensor: reads an aged ring oscillator the way the
// paper's FPGA test harness does — with a finite gate time (quantization)
// and supply/temperature noise. Produces the "measurement" column of our
// Table I reproduction next to the analytic "model" column.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"
#include "device/bti_model.hpp"
#include "device/ring_oscillator.hpp"

namespace dh::device {

class BtiSensor {
 public:
  /// A counter with a 0.1 s gate (10 Hz resolution) and 2e-4 relative
  /// supply/temperature jitter.
  BtiSensor(RingOscillator ro, Rng rng);

  /// One frequency measurement of a device in the given BTI state.
  [[nodiscard]] Hertz measure_frequency(const BtiModel& device);

  /// Measured Vth shift: frequency readout inverted through the RO model.
  [[nodiscard]] Volts measure_delta_vth(const BtiModel& device);

  [[nodiscard]] const RingOscillator& oscillator() const { return ro_; }

 private:
  RingOscillator ro_;
  Rng rng_;
};

}  // namespace dh::device
