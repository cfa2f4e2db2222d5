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

}  // namespace

PermanentComponent::PermanentComponent(PermanentComponentParams params)
    : params_(params) {
  DH_REQUIRE(params_.p_max.value() > 0.0, "P_max must be positive");
  DH_REQUIRE(params_.gen_rate_ref_v_per_s >= 0.0,
             "generation rate must be non-negative");
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
    const double g = params_.gen_rate_ref_v_per_s *
                     std::exp((v - params_.gen_ref_bias.value()) /
                              params_.gen_v0) *
                     arrhenius_acceleration(
                         params_.gen_ea, t,
                         to_kelvin(params_.gen_ref_temperature));
    const int substeps =
        std::max(1, static_cast<int>(std::ceil(dt.value() / kSubstepS)));
    const double h = dt.value() / substeps;
    for (int s = 0; s < substeps; ++s) {
      const double saturation =
          std::max(0.0, 1.0 - (pu_ + pl_) / params_.p_max.value());
      const double lock_flux = params_.k_lock_per_v_s * pu_ * pu_;
      pu_ += h * (g * saturation - lock_flux);
      pl_ += h * lock_flux;
      pu_ = std::max(pu_, 0.0);
    }
  } else {
    // Annealing: linear decay, exact update.
    const double rate = 1.0 / params_.anneal_tau0_s *
                        boltzmann_factor(params_.anneal_ea, t) *
                        std::exp(std::max(-v, 0.0) / params_.anneal_v0);
    pu_ *= std::exp(-dt.value() * rate);
    pl_ *= std::exp(-dt.value() * rate * params_.lock_anneal_ratio);
  }
}

void PermanentComponent::reset() {
  pu_ = 0.0;
  pl_ = 0.0;
}

}  // namespace dh::device
