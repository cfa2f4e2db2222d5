// EKV-flavoured MOSFET model: a single smooth expression covering weak
// inversion, triode, and saturation — chosen for Newton-Raphson
// robustness. Strong-inversion saturation reduces to the familiar
// (beta/2)*(Vgs-Vth)^2*(1+lambda*Vds). Every device shares the slope
// factor, lambda and temperature (27 C) set in mosfet.cpp.
#pragma once

#include "common/units.hpp"

namespace dh::circuit {

enum class MosPolarity { kNmos, kPmos };

struct MosfetParams {
  MosPolarity polarity = MosPolarity::kNmos;
  double vth = 0.30;        // threshold voltage (magnitude), V
  double beta = 2e-3;       // transconductance factor kp*W/L, A/V^2
};

/// Drain current and its partial derivatives w.r.t. each terminal
/// voltage. Terminal voltages are absolute; the model internally mirrors
/// PMOS and swaps source/drain for negative Vds so callers never need to.
/// `ids` is the current flowing into the drain terminal and out of the
/// source terminal (negative for a conducting PMOS).
struct MosfetEval {
  double ids = 0.0;
  double d_vg = 0.0;  // d ids / d vg
  double d_vd = 0.0;  // d ids / d vd
  double d_vs = 0.0;  // d ids / d vs
};

[[nodiscard]] MosfetEval evaluate_mosfet(const MosfetParams& p, double vg,
                                         double vd, double vs);

}  // namespace dh::circuit
