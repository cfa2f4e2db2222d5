#include "em/compact_em.hpp"

#include <algorithm>
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

// An infinite step would make the void length NaN, which no break test
// catches.
void require_valid_dt(Seconds dt) {
  DH_REQUIRE(std::isfinite(dt.value()) && dt.value() >= 0.0,
             "time step must be finite and non-negative");
}

// A NaN density would poison every pool for good: the stress never
// reaches the critical value, so the wire could never fail.
void require_finite_current(AmpsPerM2 j) {
  DH_REQUIRE(std::isfinite(j.value()), "current density must be finite");
}

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
  kappa_ref_ = params_.material.kappa(to_kelvin(params_.t_ref));
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

EmStepFactors CompactEm::pool_factors(Celsius temperature,
                                      Seconds dt) const {
  EmStepFactors f;
  f.temperature = to_kelvin(temperature);
  f.dt_s = dt.value();
  f.kinetics = params_.material.kinetics(
      f.temperature, params_.wire.resistivity_at(f.temperature));
  f.sqrt_kappa = std::sqrt(f.kinetics.kappa);
  // Temperature scales the pool kinetics through kappa (same Arrhenius as
  // the PDE).
  const double speedup = f.kinetics.kappa / kappa_ref_;
  for (std::size_t k = 0; k < taus_.size(); ++k) {
    const double tau = taus_[k] / std::max(speedup, 1e-12);
    f.pool_decay[k] = std::exp(-f.dt_s / tau);
  }
  return f;
}

double CompactEm::void_conversion(const EmStepFactors& f) const {
  const double fix = params_.material.fix_rate(f.temperature);
  return 1.0 - std::exp(-fix * f.dt_s);
}

EmStepFactors CompactEm::factors(Celsius temperature, Seconds dt) const {
  require_valid_dt(dt);
  EmStepFactors f = pool_factors(temperature, dt);
  f.void_conversion = void_conversion(f);
  return f;
}

void CompactEm::step(AmpsPerM2 j, Celsius temperature, Seconds dt) {
  require_finite_current(j);
  require_valid_dt(dt);
  if (dt.value() == 0.0 || broken_) return;
  EmStepFactors f = pool_factors(temperature, dt);
  advance_pools(j, f);
  if (void_open_) {
    f.void_conversion = void_conversion(f);
    advance_void(j, f);
  }
}

void CompactEm::step(AmpsPerM2 j, const EmStepFactors& f) {
  require_finite_current(j);
  if (f.dt_s == 0.0 || broken_) return;
  advance_pools(j, f);
  if (void_open_) advance_void(j, f);
}

void CompactEm::advance_pools(AmpsPerM2 j, const EmStepFactors& f) {
  // Pool targets follow the signed driving force; while a void is open
  // the stressed end is a free surface, so targets collapse to 0.
  const double g = f.kinetics.driving_force(j);
  for (std::size_t k = 0; k < taus_.size(); ++k) {
    const double target = void_open_ ? 0.0 : g * f.sqrt_kappa * gains_[k];
    pools_[k] = target + (pools_[k] - target) * f.pool_decay[k];
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
}

void CompactEm::advance_void(AmpsPerM2 j, const EmStepFactors& f) {
  // Drift growth when the wind pushes atoms away from the void end;
  // healing when reversed.
  const double v = f.kinetics.drift_velocity(j);
  const double rate = static_cast<double>(void_polarity_) * v;
  // Growth feeds the slit with partial efficiency; healing refills it at
  // full efficiency (same physics as the PDE solver).
  void_mobile_m_ += rate * (rate > 0.0 ? kSlitEfficiency : 1.0) * f.dt_s;
  const double converted = void_mobile_m_ * f.void_conversion;
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
