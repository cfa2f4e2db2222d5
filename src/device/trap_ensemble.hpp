// Capture/emission trap-ensemble model of the recoverable BTI component.
//
// The mainstream physical picture of BTI (which the paper cites via
// Mahapatra and Grasser) is an ensemble of oxide/interface traps with
// widely distributed capture and emission time constants. We discretize
// the ensemble over the *emission* activation energy Ea. Each bin i has
//
//   capture  rate  rc_i = 1/tau0c * exp(-(Ea_i + delta_ce)/kT) * exp( V/V0c)   (V > 0)
//   emission rate  re_i = 1/tau0e * exp(- Ea_i            /kT) * exp(|V|/V0e)  (V < 0)
//
// so that a *negative* gate bias accelerates emission (the paper's
// "activated" recovery) and temperature accelerates both (the paper's
// "accelerated" recovery) — exactly the four quadrants of Fig. 2a.
// During stress, emission is field-suppressed by exp(-V/V0e).
//
// Over a constant-condition interval each bin relaxes analytically toward
// its equilibrium occupancy, which makes the update unconditionally stable
// for arbitrarily long steps.
//
// The trap density is piecewise constant over Ea, in seven segments.
// trap_ensemble.cpp holds the calibration as constants: the segment
// edges, the bin count, tau0, the three V0, delta_ce and the shift with
// every trap occupied. Only the segment weights are a parameter, because
// tools/calibrate_bti fits them.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "device/bti_types.hpp"

namespace dh::device {

/// Relative trap density of each emission-energy segment; normalized to
/// sum to 1 on construction.
using TrapSegmentWeights = std::array<double, 7>;

class TrapEnsemble {
 public:
  /// Throws dh::Error unless every weight is finite and non-negative and
  /// their sum is positive.
  explicit TrapEnsemble(const TrapSegmentWeights& segment_weights);

  /// Advance the ensemble for `dt` under a constant condition.
  void apply(const BtiCondition& condition, Seconds dt);

  /// Reset to the fresh (all traps empty) state.
  void reset();

  /// Vth shift contributed by currently occupied traps.
  [[nodiscard]] Volts delta_vth() const;

  /// Weighted fraction of traps occupied, in [0, 1].
  [[nodiscard]] double occupied_fraction() const;

  /// Occupancy of bin i (for tests/inspection).
  [[nodiscard]] double occupancy(std::size_t i) const;
  [[nodiscard]] std::size_t bin_count() const { return centers_.size(); }

 private:
  std::vector<double> centers_;  // bin center emission energies (eV)
  std::vector<double> weights_;  // normalized bin weights (sum = 1)
  std::vector<double> occupancy_;
};

}  // namespace dh::device
