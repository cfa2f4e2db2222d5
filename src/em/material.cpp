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

}  // namespace

double EmMaterialParams::diffusivity(Kelvin t) const {
  return d0_m2_per_s * boltzmann_factor(kDiffusionEa, t);
}

double EmMaterialParams::kappa(Kelvin t) const {
  const double kt_j = constants::kBoltzmannJ * t.value();
  return diffusivity(t) * kBulkModulusPa * kAtomicVolumeM3 / kt_j;
}

double EmMaterialParams::driving_force(double resistivity_ohm_m,
                                       AmpsPerM2 j) const {
  return constants::kElementaryCharge * kZEff * resistivity_ohm_m *
         j.value() / kAtomicVolumeM3;
}

double EmMaterialParams::drift_velocity(Kelvin t, double resistivity_ohm_m,
                                        AmpsPerM2 j) const {
  const double kt_j = constants::kBoltzmannJ * t.value();
  return diffusivity(t) * constants::kElementaryCharge * kZEff *
         resistivity_ohm_m * j.value() / kt_j;
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
