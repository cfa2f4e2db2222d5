#include "device/ring_oscillator.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dh::device {

RingOscillator::RingOscillator(RingOscillatorParams params)
    : params_(params) {
  DH_REQUIRE(params_.vdd > params_.vth0,
             "supply must exceed the threshold voltage");
  DH_REQUIRE(params_.alpha >= 1.0 && params_.alpha <= 2.0,
             "alpha-power exponent out of physical range");
}

Hertz RingOscillator::frequency(Volts delta_vth,
                                double mobility_factor) const {
  return frequency_at(params_.vdd, delta_vth, mobility_factor);
}

Hertz RingOscillator::frequency_at(Volts vdd, Volts delta_vth,
                                   double mobility_factor) const {
  DH_REQUIRE(mobility_factor > 0.0 && mobility_factor <= 1.0,
             "mobility factor must be in (0, 1]");
  const double overdrive0 = params_.vdd.value() - params_.vth0.value();
  const double overdrive =
      vdd.value() - params_.vth0.value() - delta_vth.value();
  DH_REQUIRE(overdrive > 0.0,
             "device no longer switches: Vdd - Vth - dVth <= 0");
  // Alpha-power law: f ~ mu * (Vdd - Vth)^alpha / Vdd.
  const double ratio = mobility_factor *
                       std::pow(overdrive / overdrive0, params_.alpha) *
                       (params_.vdd.value() / vdd.value());
  return Hertz{params_.fresh_frequency.value() * ratio};
}

double RingOscillator::degradation(Volts delta_vth,
                                   double mobility_factor) const {
  const double f = frequency(delta_vth, mobility_factor).value();
  return 1.0 - f / params_.fresh_frequency.value();
}

Volts RingOscillator::infer_delta_vth(Hertz measured) const {
  // Inverts the alpha-power law f = f0 * ((od0 - dVth) / od0)^alpha at
  // mu = 1 and the nominal supply.
  const double f0 = params_.fresh_frequency.value();
  if (measured.value() >= f0) return Volts{0.0};  // at/above fresh frequency
  const double overdrive0 = params_.vdd.value() - params_.vth0.value();
  const double dv = overdrive0 * (1.0 - std::pow(measured.value() / f0,
                                                 1.0 / params_.alpha));
  // A NaN or negative frequency gives a NaN dv, zero gives dv = od0: all
  // fail this check.
  DH_REQUIRE(dv <= 0.95 * overdrive0,
             "frequency below the readable floor (dVth > 0.95 overdrive)");
  return Volts{dv};
}

}  // namespace dh::device
