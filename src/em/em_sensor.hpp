// Four-point resistance measurement of an EM test wire — the paper's
// probe-pad setup (Fig. 3) with realistic meter resolution and noise.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"

namespace dh::em {

class EmSensor {
 public:
  /// A meter with 5e-4 relative contact/thermal noise and 0.01 Ohm
  /// quantization.
  explicit EmSensor(Rng rng);

  /// One resistance measurement of a wire whose true resistance is `r`.
  [[nodiscard]] Ohms measure(Ohms r);

 private:
  Rng rng_;
};

/// The paper's accelerated EM conditions (Figs. 5-7): 230 C chamber,
/// +/- 7.96 MA/cm^2.
namespace paper_em_conditions {
[[nodiscard]] inline Celsius chamber() { return Celsius{230.0}; }
[[nodiscard]] inline AmpsPerM2 stress_density() {
  return mega_amps_per_cm2(7.96);
}
[[nodiscard]] inline AmpsPerM2 reverse_density() {
  return mega_amps_per_cm2(-7.96);
}
}  // namespace paper_em_conditions

}  // namespace dh::em
