#include "sram/sram_cell.hpp"

#include <algorithm>
#include <cmath>

#include "circuit/mna.hpp"
#include "common/error.hpp"
#include "common/math/interp.hpp"

namespace dh::sram {

namespace {

constexpr Volts kVdd{0.9};
constexpr double kPmosVth = 0.30;
constexpr double kNmosVth = 0.28;
constexpr double kPmosBeta = 0.8e-4;  // weak pull-ups (standard 6T ratioing)
constexpr double kNmosBeta = 2.0e-4;  // strong pull-downs
constexpr Volts kRecoveryBias{-0.3};  // assist/boost bias for PMOS recovery
static_assert(kVdd.value() > kPmosVth,
              "supply must exceed the PMOS threshold");

}  // namespace

void SramCell::step(CellMode mode, bool stored_bit, Celsius temperature,
                    Seconds dt) {
  const bool boost = mode == CellMode::kRecoveryBoost;
  for (const device::BtiJob& job :
       jobs(stored_bit, temperature, boost ? Seconds{0.0} : dt,
            boost ? dt : Seconds{0.0})) {
    job.device->apply(job.condition, job.dt);
    job.device->apply(job.relax, job.relax_dt);
  }
}

std::array<device::BtiJob, 2> SramCell::jobs(bool stored_bit,
                                             Celsius temperature,
                                             Seconds hold, Seconds boost) {
  // Holding: the PMOS on the "1" side conducts, |Vsg| = VDD (NBTI
  // stress). Boosting: both PMOS heal.
  const device::BtiCondition stressed{kVdd, temperature};
  const device::BtiCondition resting{Volts{0.0}, temperature};
  const device::BtiCondition healing{kRecoveryBias, temperature};
  return {{{&left_pmos_, stored_bit ? stressed : resting, hold, healing,
            boost},
           {&right_pmos_, stored_bit ? resting : stressed, hold, healing,
            boost}}};
}

Volts SramCell::left_pmos_dvth() const { return left_pmos_.delta_vth(); }
Volts SramCell::right_pmos_dvth() const { return right_pmos_.delta_vth(); }

std::vector<double> inverter_vtc(Volts pmos_dvth, Volts nmos_dvth,
                                 const std::vector<double>& vin) {
  std::vector<double> out;
  out.reserve(vin.size());
  for (const double v : vin) {
    circuit::Circuit c;
    const auto vdd = c.add_node();
    const auto in = c.add_node();
    const auto o = c.add_node();
    (void)c.add_voltage_source(vdd, circuit::Circuit::ground(),
                               circuit::Waveform::dc(kVdd.value()));
    (void)c.add_voltage_source(in, circuit::Circuit::ground(),
                               circuit::Waveform::dc(v));
    circuit::MosfetParams p;
    p.polarity = circuit::MosPolarity::kPmos;
    p.vth = kPmosVth + pmos_dvth.value();
    p.beta = kPmosBeta;
    circuit::MosfetParams n;
    n.polarity = circuit::MosPolarity::kNmos;
    n.vth = kNmosVth + nmos_dvth.value();
    n.beta = kNmosBeta;
    c.add_mosfet(p, in, o, vdd);
    c.add_mosfet(n, in, o, circuit::Circuit::ground());
    out.push_back(c.solve_dc().voltage(o));
  }
  return out;
}

namespace {

/// A monotonically *decreasing* tabulated VTC turned into its inverse:
/// interp_linear(f, x, target) returns y with f(y) = target (clamped).
struct InverseVtc {
  std::vector<double> f;  // the curve's outputs, made strictly increasing
  std::vector<double> x;  // its inputs, in the same (reversed) order
};

InverseVtc invert_decreasing(const std::vector<double>& xs,
                             const std::vector<double>& fs) {
  // Reverse so the table is increasing in f.
  InverseVtc inv{{fs.rbegin(), fs.rend()}, {xs.rbegin(), xs.rend()}};
  // Enforce strictly increasing f for the interpolator.
  for (std::size_t i = 1; i < inv.f.size(); ++i) {
    if (inv.f[i] <= inv.f[i - 1]) inv.f[i] = inv.f[i - 1] + 1e-12;
  }
  return inv;
}

/// Largest square of side s that fits in the lobe where curve A
/// (y = f_a(x)) lies above the inverse of curve B. Both boundaries are
/// decreasing, so the square [x, x+s] x [y, y+s] fits iff
/// f_a(x+s) - f_b^{-1}(x) >= s.
double lobe_square(const std::vector<double>& vin,
                   const std::vector<double>& f_a,
                   const std::vector<double>& f_b) {
  const double vmax = vin.back();
  // Built once: every probe below reads the same inverse table.
  const InverseVtc b_inv = invert_decreasing(vin, f_b);
  auto fits = [&](double s) {
    for (int k = 0; k <= 160; ++k) {
      const double x = (vmax - s) * k / 160.0;
      const double top = math::interp_linear(vin, f_a, x + s);
      const double bottom = math::interp_linear(b_inv.f, b_inv.x, x);
      if (top - bottom >= s) return true;
    }
    return false;
  };
  double lo = 0.0;
  double hi = vmax;
  if (!fits(1e-6)) return 0.0;
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

double snm_from_vtcs(const std::vector<double>& vin,
                     const std::vector<double>& vtc1,
                     const std::vector<double>& vtc2) {
  DH_REQUIRE(vin.size() == vtc1.size() && vin.size() == vtc2.size() &&
                 vin.size() >= 4,
             "VTC tables must match and have >= 4 points");
  // The butterfly has two lobes; the hold SNM is the side of the largest
  // square embedded in the *smaller* lobe. Lobe 1: curve A above B's
  // inverse; lobe 2: the mirror case with the roles swapped.
  const double lobe1 = lobe_square(vin, vtc1, vtc2);
  const double lobe2 = lobe_square(vin, vtc2, vtc1);
  return std::min(lobe1, lobe2);
}

namespace {

double cell_snm(Volts left_dvth, Volts right_dvth) {
  const auto vin = math::linspace(0.0, kVdd.value(), 41);
  // In the cross-coupled pair, the inverter driving Q uses the left
  // PMOS and the one driving Qb uses the right PMOS. PBTI on the NMOS
  // devices is second order for hold SNM and held fresh here.
  const auto f1 = inverter_vtc(left_dvth, Volts{0.0}, vin);
  const auto f2 = inverter_vtc(right_dvth, Volts{0.0}, vin);
  return snm_from_vtcs(vin, f1, f2);
}

}  // namespace

Volts SramCell::hold_snm() const {
  return Volts{cell_snm(left_pmos_.delta_vth(), right_pmos_.delta_vth())};
}

Volts SramCell::fresh_snm() const {
  return Volts{cell_snm(Volts{0.0}, Volts{0.0})};
}

}  // namespace dh::sram
