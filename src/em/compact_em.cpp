#include "em/compact_em.hpp"

#include <cmath>
#include <numbers>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh::em {

namespace {

/// Ratio between adjacent pool time constants.
constexpr double kTauSpread = 10.0;
/// Prony fit gain for the sqrt(t) kernel.
constexpr double kKernelGain = 0.79;

}  // namespace

Seconds CompactEm::analytic_nucleation_time(const EmMaterialParams& material,
                                            const WireGeometry& wire,
                                            AmpsPerM2 j, Celsius t) {
  DH_REQUIRE(std::abs(j.value()) > 0.0,
             "nucleation time undefined at zero current");
  const Kelvin tk = to_kelvin(t);
  const double g =
      material.driving_force(wire.resistivity_at(tk), AmpsPerM2{
                                                          std::abs(j.value())});
  const double kappa = material.kappa(tk);
  const double ratio = material.critical_stress.value() / g;
  return Seconds{std::numbers::pi / 4.0 * ratio * ratio / kappa};
}

CompactEm::CompactEm(CompactEmParams params) : params_(params) {
  const double tau_mid = analytic_nucleation_time(params_.material,
                                                  params_.wire, params_.j_ref,
                                                  params_.t_ref)
                              .value();
  DH_REQUIRE(tau_mid > 0.0, "reference timescale must be positive");
  taus_ = {tau_mid / kTauSpread, tau_mid, tau_mid * kTauSpread};
  // Each pool saturates to 2*G*sqrt(kappa*tau_k/pi)*gain; we store the
  // sqrt(tau) factors and apply G*sqrt(kappa) at step time.
  for (std::size_t k = 0; k < taus_.size(); ++k) {
    gains_[k] = 2.0 * kKernelGain * std::sqrt(taus_[k] / std::numbers::pi);
  }
  reset();
}

void CompactEm::reset() {
  pools_ = {0.0, 0.0, 0.0};
  void_open_ = false;
  void_polarity_ = 0;
  void_mobile_m_ = 0.0;
  void_fixed_m_ = 0.0;
  broken_ = false;
}

void CompactEm::step(AmpsPerM2 j, Celsius temperature, Seconds dt) {
  // An infinite step would make the void length NaN, which no break test
  // catches.
  DH_REQUIRE(std::isfinite(dt.value()) && dt.value() >= 0.0,
             "time step must be finite and non-negative");
  if (dt.value() == 0.0 || broken_) return;
  const Kelvin t = to_kelvin(temperature);
  const double kappa = params_.material.kappa(t);
  const double rho = params_.wire.resistivity_at(t);
  const double g = params_.material.driving_force(rho, j);

  // Temperature scales the pool kinetics through kappa (same Arrhenius as
  // the PDE). Pool targets follow the signed driving force; while a void
  // is open the stressed end is a free surface, so targets collapse to 0.
  const double kappa_ref =
      params_.material.kappa(to_kelvin(params_.t_ref));
  const double speedup = kappa / kappa_ref;
  for (std::size_t k = 0; k < taus_.size(); ++k) {
    const double target =
        void_open_ ? 0.0 : g * std::sqrt(kappa) * gains_[k];
    const double tau = taus_[k] / std::max(speedup, 1e-12);
    pools_[k] = target + (pools_[k] - target) * std::exp(-dt.value() / tau);
  }

  if (!void_open_) {
    const double sc = params_.material.critical_stress.value();
    const double stress = end_stress().value();
    if (std::abs(stress) >= sc) {
      void_open_ = true;
      void_polarity_ = stress > 0.0 ? 1 : -1;
      if (void_mobile_m_ <= 0.0) void_mobile_m_ = 0.5e-9;
    }
  }

  if (void_open_) {
    // Drift growth when the wind pushes atoms away from the void end;
    // healing when reversed.
    const double v = params_.material.drift_velocity(t, rho, j);
    const double rate = static_cast<double>(void_polarity_) * v;
    // Growth feeds the slit with partial efficiency; healing refills it at
    // full efficiency (same physics as the PDE solver).
    void_mobile_m_ +=
        rate * (rate > 0.0 ? kSlitEfficiency : 1.0) * dt.value();
    const double fix = params_.material.fix_rate(t);
    const double converted =
        void_mobile_m_ * (1.0 - std::exp(-fix * dt.value()));
    if (converted > 0.0) {
      void_mobile_m_ -= converted;
      void_fixed_m_ += converted;
    }
    if (void_mobile_m_ <= 0.0) {
      void_mobile_m_ = 0.0;
      void_open_ = false;
      void_polarity_ = 0;
    }
    if (void_mobile_m_ + void_fixed_m_ >= kBreakVoidLengthM) {
      broken_ = true;
    }
  }
}

Pascals CompactEm::end_stress() const {
  return Pascals{pools_[0] + pools_[1] + pools_[2]};
}

Ohms CompactEm::resistance(Celsius t) const {
  if (broken_) return Ohms{1e9};
  return params_.wire.resistance_with_void(
      to_kelvin(t), Meters{void_mobile_m_ + void_fixed_m_});
}

void CompactEm::save_state(ckpt::Serializer& s) const {
  s.begin_section("CPEM");
  for (const double p : pools_) s.write_f64(p);
  s.write_bool(void_open_);
  s.write_i64(void_polarity_);
  s.write_f64(void_mobile_m_);
  s.write_f64(void_fixed_m_);
  s.write_bool(broken_);
}

void CompactEm::load_state(ckpt::Deserializer& d) {
  d.expect_section("CPEM");
  for (double& p : pools_) p = d.read_f64();
  void_open_ = d.read_bool();
  void_polarity_ = static_cast<int>(d.read_i64());
  void_mobile_m_ = d.read_f64();
  void_fixed_m_ = d.read_f64();
  broken_ = d.read_bool();
}

}  // namespace dh::em
