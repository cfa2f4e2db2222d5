// Electromigration material/kinetics parameters (Korhonen model inputs).
//
// Defaults are set inside copper-literature ranges and chosen so that at
// the paper's accelerated condition — 230 C and 7.96 MA/cm^2 — the void
// nucleation time lands near the ~6 h mark of Fig. 5 and void growth
// produces ~0.4 Ohm/h of liner-shunted resistance rise. Derivation in
// DESIGN.md §5.
#pragma once

#include "common/constants.hpp"
#include "common/units.hpp"

namespace dh::em {

/// Effective bulk modulus B of the confined line (Pa).
inline constexpr double kBulkModulusPa = constants::kCopperEffectiveModulus;
/// Void length at which the line is considered mechanically broken (liner
/// can no longer carry the current), in m.
inline constexpr double kBreakVoidLengthM = 60e-9;
/// Fraction of the vacancy flux that grows the current-constricting slit
/// void (the remainder spreads as distributed porosity with no resistance
/// signature). Healing refills the slit first, at full efficiency — one of
/// the two reasons active recovery outpaces growth.
inline constexpr double kSlitEfficiency = 0.35;

/// The EM kinetics of one material in one wire at one temperature, each
/// term evaluated once. CompactEm::factors keeps one per grid step and
/// shares it across every segment, and KorhonenSolver::step one across its
/// substeps; the results match diffusivity, driving_force, drift_velocity
/// and kappa bit for bit.
struct EmKinetics {
  double kt_j = 0.0;          // kT (J)
  double diffusivity = 0.0;   // D (m^2/s)
  double kappa = 0.0;         // Korhonen kappa (m^2/s)
  double wind_charge = 0.0;   // e*Z*rho (C*Ohm*m)
  double drift_charge = 0.0;  // D*e*Z*rho (C*Ohm*m^3/s)

  /// G = (e*Z*rho)*j / Omega (Pa/m).
  [[nodiscard]] double driving_force(AmpsPerM2 j) const;
  /// v = (D*e*Z*rho)*j / kT (m/s).
  [[nodiscard]] double drift_velocity(AmpsPerM2 j) const;
};

/// The two material values a population spreads per wire (bench
/// em_population_ttf); the rest of the calibration is constants here and
/// in material.cpp.
struct EmMaterialParams {
  /// Diffusivity prefactor D0 (m^2/s); the activation energy is fixed.
  double d0_m2_per_s = 3.4e-8;
  /// Critical tensile stress for void nucleation.
  Pascals critical_stress{4.0e8};

  /// Atomic diffusivity at temperature t (m^2/s).
  [[nodiscard]] double diffusivity(Kelvin t) const;
  /// Korhonen effective diffusivity kappa = Da*B*Omega/kT (m^2/s).
  [[nodiscard]] double kappa(Kelvin t) const;
  /// EM driving force G = e*Z*rho(T)*j / Omega (Pa/m); needs the wire's
  /// resistivity at temperature.
  [[nodiscard]] double driving_force(double resistivity_ohm_m,
                                     AmpsPerM2 j) const;
  /// Drift velocity of the void surface under pure electron wind (m/s).
  [[nodiscard]] double drift_velocity(Kelvin t, double resistivity_ohm_m,
                                      AmpsPerM2 j) const;
  /// kT, kappa, e*Z*rho and D*e*Z*rho at temperature t in a wire of
  /// resistivity `resistivity_ohm_m` (that wire's value at t).
  [[nodiscard]] EmKinetics kinetics(Kelvin t, double resistivity_ohm_m) const;
  /// First-order immobilization rate at temperature t (1/s).
  [[nodiscard]] double fix_rate(Kelvin t) const;
  /// Critical Blech product 2*sigma_c*Omega/(e*Z*rho): below this j*L the
  /// back-stress alone suppresses EM (immortal wire).
  [[nodiscard]] double blech_threshold(double resistivity_ohm_m) const;
};

/// Parameters used for the Fig. 5-7 reproductions.
[[nodiscard]] EmMaterialParams paper_calibrated_em_material();

}  // namespace dh::em
