#include "em/material.hpp"

#include <cmath>

#include "common/arrhenius.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"

namespace dh::em {

namespace {

/// Effective charge number Z* of the electron wind (dimensionless).
constexpr double kZEff = 1.0;
/// Activation energy of the atomic diffusivity.
constexpr ElectronVolts kDiffusionEa{0.90};
/// Atomic volume Omega (m^3).
constexpr double kAtomicVolumeM3 = constants::kCopperAtomicVolume;
/// Void-immobilization ("permanent component") kinetics: mobile void
/// length converts first-order into unhealable length with rate
/// 1/tau(T) = (1/kFixTau0S) * exp(-kFixEa/kT), tau ~ 24 h at 230 C.
constexpr double kFixTau0S = 7.65e-7;
constexpr ElectronVolts kFixEa{1.10};

// Each formula below is written once; the per-temperature terms and the
// per-call functions both go through these, so hoisting a term out of a
// loop keeps every operand order and changes no bit.
double thermal_energy_j(Kelvin t) {
  return constants::kBoltzmannJ * t.value();
}
double kappa_of(double diffusivity, double kt_j) {
  return diffusivity * kBulkModulusPa * kAtomicVolumeM3 / kt_j;
}
double wind_charge_of(double resistivity_ohm_m) {
  return constants::kElementaryCharge * kZEff * resistivity_ohm_m;
}
double drift_charge_of(double diffusivity, double resistivity_ohm_m) {
  return diffusivity * constants::kElementaryCharge * kZEff *
         resistivity_ohm_m;
}
double force_of(double wind_charge, AmpsPerM2 j) {
  return wind_charge * j.value() / kAtomicVolumeM3;
}
double velocity_of(double drift_charge, AmpsPerM2 j, double kt_j) {
  return drift_charge * j.value() / kt_j;
}

}  // namespace

double EmKinetics::driving_force(AmpsPerM2 j) const {
  return force_of(wind_charge, j);
}

double EmKinetics::drift_velocity(AmpsPerM2 j) const {
  return velocity_of(drift_charge, j, kt_j);
}

double EmMaterialParams::diffusivity(Kelvin t) const {
  return d0_m2_per_s * boltzmann_factor(kDiffusionEa, t);
}

double EmMaterialParams::kappa(Kelvin t) const {
  return kappa_of(diffusivity(t), thermal_energy_j(t));
}

double EmMaterialParams::driving_force(double resistivity_ohm_m,
                                       AmpsPerM2 j) const {
  return force_of(wind_charge_of(resistivity_ohm_m), j);
}

double EmMaterialParams::drift_velocity(Kelvin t, double resistivity_ohm_m,
                                        AmpsPerM2 j) const {
  return velocity_of(drift_charge_of(diffusivity(t), resistivity_ohm_m), j,
                     thermal_energy_j(t));
}

EmKinetics EmMaterialParams::kinetics(Kelvin t,
                                      double resistivity_ohm_m) const {
  const double d = diffusivity(t);
  const double kt_j = thermal_energy_j(t);
  return EmKinetics{.kt_j = kt_j,
                    .diffusivity = d,
                    .kappa = kappa_of(d, kt_j),
                    .wind_charge = wind_charge_of(resistivity_ohm_m),
                    .drift_charge = drift_charge_of(d, resistivity_ohm_m)};
}

double EmMaterialParams::fix_rate(Kelvin t) const {
  return 1.0 / kFixTau0S * boltzmann_factor(kFixEa, t);
}

double EmMaterialParams::blech_threshold(double resistivity_ohm_m) const {
  DH_REQUIRE(resistivity_ohm_m > 0.0, "resistivity must be positive");
  return 2.0 * critical_stress.value() * kAtomicVolumeM3 /
         (constants::kElementaryCharge * kZEff * resistivity_ohm_m);
}

EmMaterialParams paper_calibrated_em_material() { return EmMaterialParams{}; }

}  // namespace dh::em
