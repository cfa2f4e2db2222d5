#include "device/permanent.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/arrhenius.hpp"
#include "common/error.hpp"

namespace dh::device {

namespace {

/// Forward-Euler substep length of the precursor dynamics under stress.
constexpr double kSubstepS = 60.0;

/// The longest step whose substep count, ceil(dt / kSubstepS), fits an
/// int. Exactly representable, and dividing it by kSubstepS gives exactly
/// INT_MAX, so every step up to it has a count that fits.
constexpr double kMaxDtS =
    kSubstepS * static_cast<double>(std::numeric_limits<int>::max());

// The calibration (DESIGN.md §5). Generation under stress: the reference
// condition the fitted rate is quoted at, V per e-fold of its bias
// acceleration and its activation energy.
constexpr BtiCondition kGenRef{Volts{1.2}, Celsius{110.0}};
constexpr double kGenV0 = 0.1;
constexpr ElectronVolts kGenEa{0.80};
// Saturation level of P_u + P_l (V).
constexpr double kPMaxV = 0.060;
static_assert(kPMaxV > 0.0, "P_max must be positive");
// Locking (precursor -> permanent), second order in P_u.
constexpr double kKLockPerVS = 0.041;
// Annealing of precursors under recovery: attempt time, activation
// energy and V per e-fold of negative-bias acceleration. The locked
// component anneals ~1000x slower.
constexpr double kAnnealTau0S = 1.4e-8;
constexpr ElectronVolts kAnnealEa{1.0};
constexpr double kAnnealV0 = 0.075;
constexpr double kLockAnnealRatio = 1e-3;

}  // namespace

PermanentComponent::PermanentComponent(double gen_rate_ref_v_per_s)
    : gen_rate_ref_v_per_s_(gen_rate_ref_v_per_s) {
  DH_REQUIRE(std::isfinite(gen_rate_ref_v_per_s_) &&
                 gen_rate_ref_v_per_s_ >= 0.0,
             "generation rate must be finite and non-negative");
}

void PermanentComponent::require_valid_dt(Seconds dt) {
  // The bound also rejects NaN and infinity.
  DH_REQUIRE(dt.value() >= 0.0 && dt.value() <= kMaxDtS,
             "time step must be non-negative and at most 60 s x INT_MAX "
             "(the substep count is an int)");
}

void PermanentComponent::apply(const BtiCondition& condition, Seconds dt) {
  require_valid_dt(dt);
  if (dt.value() == 0.0) return;
  const Kelvin t = to_kelvin(condition.temperature);
  const double v = condition.gate_bias.value();

  if (condition.is_stress()) {
    // Generation + second-order locking: integrate with small explicit
    // substeps (the dynamics are mildly nonlinear but smooth; a 60 s
    // substep is far below every time constant involved).
    const double g = gen_rate_ref_v_per_s_ *
                     std::exp((v - kGenRef.gate_bias.value()) / kGenV0) *
                     arrhenius_acceleration(kGenEa, t,
                                            to_kelvin(kGenRef.temperature));
    const int substeps =
        std::max(1, static_cast<int>(std::ceil(dt.value() / kSubstepS)));
    const double h = dt.value() / substeps;
    for (int s = 0; s < substeps; ++s) {
      const double saturation =
          std::max(0.0, 1.0 - (pu_ + pl_) / kPMaxV);
      const double lock_flux = kKLockPerVS * pu_ * pu_;
      pu_ += h * (g * saturation - lock_flux);
      pl_ += h * lock_flux;
      pu_ = std::max(pu_, 0.0);
    }
  } else {
    // Annealing: linear decay, exact update.
    const double rate = 1.0 / kAnnealTau0S * boltzmann_factor(kAnnealEa, t) *
                        std::exp(std::max(-v, 0.0) / kAnnealV0);
    pu_ *= std::exp(-dt.value() * rate);
    pl_ *= std::exp(-dt.value() * rate * kLockAnnealRatio);
  }
}

void PermanentComponent::reset() {
  pu_ = 0.0;
  pl_ = 0.0;
}

}  // namespace dh::device
