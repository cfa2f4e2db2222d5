#include "circuit/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"

namespace dh::circuit {

namespace {

constexpr double kLambda = 0.05;  // channel-length modulation, 1/V
constexpr double kN = 1.4;        // subthreshold slope factor
/// Thermal voltage kT/q at the device temperature, 27 C.
constexpr double kThermalVoltage =
    constants::kBoltzmannEv * (27.0 + kCelsiusOffset);

/// EKV interpolation function F(u) = ln^2(1 + e^{u/2}) and its derivative.
struct FEval {
  double f;
  double df;
};

FEval ekv_f(double u) {
  const double half = 0.5 * u;
  double sp;       // ln(1 + e^{half})
  double sigmoid;  // e^{half} / (1 + e^{half})
  if (half > 30.0) {
    sp = half;
    sigmoid = 1.0;
  } else if (half < -30.0) {
    sp = std::exp(half);
    sigmoid = sp;
  } else {
    sp = std::log1p(std::exp(half));
    sigmoid = 1.0 / (1.0 + std::exp(-half));
  }
  return FEval{sp * sp, sp * sigmoid};
}

struct NmosFrame {
  double i;       // I(vgs, vds), vds >= 0
  double di_vgs;
  double di_vds;
};

/// Drain current in the canonical NMOS frame (vds >= 0).
NmosFrame nmos_current(const MosfetParams& p, double vgs, double vds) {
  const double vt = kThermalVoltage;
  const double nvt = kN * vt;
  const double is = 2.0 * kN * vt * vt * p.beta;
  const FEval ff = ekv_f((vgs - p.vth) / nvt);
  const FEval fr = ekv_f((vgs - p.vth - kN * vds) / nvt);
  const double clm = 1.0 + kLambda * vds;
  const double i0 = is * (ff.f - fr.f);
  NmosFrame out;
  out.i = i0 * clm;
  out.di_vgs = is * (ff.df - fr.df) / nvt * clm;
  out.di_vds = is * fr.df / vt * clm + i0 * kLambda;
  return out;
}

}  // namespace

MosfetEval evaluate_mosfet(const MosfetParams& p, double vg, double vd,
                           double vs) {
  const double m = p.polarity == MosPolarity::kNmos ? 1.0 : -1.0;
  // Mirror PMOS into the NMOS frame: I_p(vg,vd,vs) = -I_n(-vg,-vd,-vs),
  // and by the chain rule the terminal partials carry no extra sign.
  const double vgn = m * vg;
  const double vdn = m * vd;
  const double vsn = m * vs;

  MosfetEval out;
  if (vdn >= vsn) {
    const NmosFrame f = nmos_current(p, vgn - vsn, vdn - vsn);
    out.ids = m * f.i;
    out.d_vg = f.di_vgs;
    out.d_vd = f.di_vds;
    out.d_vs = -f.di_vgs - f.di_vds;
  } else {
    // Source/drain swap: current reverses.
    const NmosFrame f = nmos_current(p, vgn - vdn, vsn - vdn);
    out.ids = -m * f.i;
    out.d_vg = -f.di_vgs;
    out.d_vd = f.di_vgs + f.di_vds;
    out.d_vs = -f.di_vds;
  }
  return out;
}

}  // namespace dh::circuit
