#include "device/bti_model.hpp"

#include <cmath>

#include "common/error.hpp"
#include "device/calibration.hpp"

namespace dh::device {

BtiModel::BtiModel(const BtiModelParams& params)
    : ensemble_(params.segment_weights),
      permanent_(params.gen_rate_ref_v_per_s) {}

BtiModel BtiModel::paper_calibrated() {
  return BtiModel{paper_calibrated_bti_params()};
}

void BtiModel::apply(const BtiCondition& condition, Seconds dt) {
  // Checked before the ensemble moves, so a rejected step changes nothing.
  // A non-finite bias would make the shift NaN (NaN, +inf) or empty every
  // trap (-inf).
  DH_REQUIRE(std::isfinite(condition.gate_bias.value()),
             "gate bias must be finite");
  PermanentComponent::require_valid_dt(dt);
  ensemble_.apply(condition, dt);
  permanent_.apply(condition, dt);
}

void BtiModel::reset() {
  ensemble_.reset();
  permanent_.reset();
}

Volts BtiModel::delta_vth() const {
  return ensemble_.delta_vth() + permanent_.total();
}

BtiBreakdown BtiModel::breakdown() const {
  return BtiBreakdown{
      .recoverable = ensemble_.delta_vth(),
      .unlocked = permanent_.unlocked(),
      .locked = permanent_.locked(),
  };
}

double BtiModel::mobility_factor() const {
  // First-order mobility coupling: a fully-degraded gate stack loses a
  // few percent of carrier mobility. theta is folded into the calibration
  // via the full-occupancy shift; 0.30 per volt of Vth shift is a typical
  // slope.
  constexpr double kThetaPerVolt = 0.30;
  const double dvth = delta_vth().value();
  const double factor = 1.0 / (1.0 + kThetaPerVolt * dvth);
  return factor;
}

double RecoveryOutcome::recovery_fraction() const {
  const double stressed = dvth_after_stress.value();
  if (stressed <= 0.0) return 0.0;
  return (stressed - dvth_after_recovery.value()) / stressed;
}

RecoveryOutcome run_stress_recovery(BtiModel& model,
                                    const BtiCondition& stress_cond,
                                    Seconds stress_time,
                                    const BtiCondition& recovery_cond,
                                    Seconds recovery_time) {
  DH_REQUIRE(stress_cond.is_stress(),
             "stress phase requires a positive gate bias");
  model.reset();
  model.apply(stress_cond, stress_time);
  RecoveryOutcome out;
  out.dvth_after_stress = model.delta_vth();
  model.apply(recovery_cond, recovery_time);
  out.dvth_after_recovery = model.delta_vth();
  return out;
}

}  // namespace dh::device
