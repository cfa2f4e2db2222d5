// Ring-oscillator frequency model — the paper's BTI measurement structure
// (a 75-stage LUT-mapped RO on a 40 nm FPGA). Stage delay follows the
// alpha-power law, so the oscillation frequency is a direct, monotonic
// readout of the threshold-voltage shift.
#pragma once

#include "common/units.hpp"

namespace dh::device {

struct RingOscillatorParams {
  int stages = 75;           // paper: 75-stage LUT-mapped RO
  Volts vdd{1.1};
  Volts vth0{0.35};
  double alpha = 1.3;        // velocity-saturation exponent
  Hertz fresh_frequency{80e6};
};

class RingOscillator {
 public:
  explicit RingOscillator(RingOscillatorParams params);

  /// Oscillation frequency for a given Vth shift and mobility factor.
  [[nodiscard]] Hertz frequency(Volts delta_vth,
                                double mobility_factor = 1.0) const;

  /// Same at a non-nominal supply.
  [[nodiscard]] Hertz frequency_at(Volts vdd, Volts delta_vth,
                                   double mobility_factor = 1.0) const;

  /// Fractional frequency degradation (positive = slower) for a shift.
  [[nodiscard]] double degradation(Volts delta_vth,
                                   double mobility_factor = 1.0) const;

  /// Inverts the frequency readout into an apparent Vth shift (what a
  /// frequency-based wearout sensor reports). Brent root find on the
  /// monotonic frequency curve.
  [[nodiscard]] Volts infer_delta_vth(Hertz measured) const;

  [[nodiscard]] const RingOscillatorParams& params() const { return params_; }

 private:
  RingOscillatorParams params_;
};

}  // namespace dh::device
