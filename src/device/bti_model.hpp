// Full BTI wearout/recovery model: trap ensemble (recoverable) +
// precursor/locking dynamics (quasi-permanent). This is the device-level
// model behind Table I and Fig. 4.
#pragma once

#include "device/bti_types.hpp"
#include "device/permanent.hpp"
#include "device/trap_ensemble.hpp"

namespace dh::device {

/// What tools/calibrate_bti fits; every other value of the model is a
/// constant in trap_ensemble.cpp or permanent.cpp.
struct BtiModelParams {
  TrapSegmentWeights segment_weights{};
  // Precursor generation rate (V/s) at the reference stress condition.
  double gen_rate_ref_v_per_s = 0.0;
};

class BtiModel {
 public:
  explicit BtiModel(const BtiModelParams& params);

  /// Model calibrated to the paper's Table I (see calibration.cpp for the
  /// fitted constants and the fitting procedure).
  [[nodiscard]] static BtiModel paper_calibrated();

  /// Advance the device state for `dt` under a constant condition. `dt`
  /// must pass PermanentComponent::require_valid_dt and the gate bias
  /// must be finite; otherwise throws dh::Error and changes nothing.
  void apply(const BtiCondition& condition, Seconds dt);

  void reset();

  /// Total threshold-voltage shift relative to fresh.
  [[nodiscard]] Volts delta_vth() const;

  /// Component breakdown (recoverable / unlocked precursor / locked).
  [[nodiscard]] BtiBreakdown breakdown() const;

  /// Carrier-mobility degradation factor in (0, 1]; BTI reduces mobility
  /// together with shifting Vth (Section I of the paper). Modeled as a
  /// first-order coupling to the interface-charge population.
  [[nodiscard]] double mobility_factor() const;

 private:
  TrapEnsemble ensemble_;
  PermanentComponent permanent_;
};

/// Result of a stress-then-recover experiment.
struct RecoveryOutcome {
  Volts dvth_after_stress{0.0};
  Volts dvth_after_recovery{0.0};
  /// Fraction of the stress-induced shift undone by the recovery phase.
  [[nodiscard]] double recovery_fraction() const;
};

/// Runs the paper's canonical experiment shape: fresh device, stress for
/// `stress_time` under `stress_cond`, then recover for `recovery_time`
/// under `recovery_cond`.
[[nodiscard]] RecoveryOutcome run_stress_recovery(
    BtiModel& model, const BtiCondition& stress_cond, Seconds stress_time,
    const BtiCondition& recovery_cond, Seconds recovery_time);

}  // namespace dh::device
