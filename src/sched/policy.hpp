// Recovery scheduling policies (Fig. 12b).
//
// A policy sees per-core sensor observations each scheduling quantum and
// assigns every core an action, plus a grid-level decision on whether the
// assist circuitry should spend this quantum in EM Active Recovery mode
// (which keeps the system operational — only BTI recovery requires the
// core to be idle, exactly as the paper's Section III-E summarizes).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sched/core_model.hpp"

namespace dh::ckpt {
class Serializer;
class Deserializer;
}  // namespace dh::ckpt

namespace dh::sched {

/// What the policy can see (sensor readings, not ground truth).
struct CoreObservation {
  Volts sensed_dvth{0.0};     // from the frequency-based BTI sensor
  Celsius temperature{45.0};
  double demanded_utilization = 0.0;
};

struct PolicyDecision {
  std::vector<CoreAction> actions;
  bool em_recovery_mode = false;  // assist circuitry grid mode
};

class RecoveryPolicy {
 public:
  virtual ~RecoveryPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Writes this quantum's decision into `out`: one action per core and
  /// the grid mode. Reuses `out.actions`' storage, so a caller that keeps
  /// one decision across quanta allocates nothing here.
  virtual void decide_into(std::span<const CoreObservation> cores,
                           Seconds now, Seconds dt, Rng& rng,
                           PolicyDecision& out) = 0;
  /// decide_into a new decision.
  [[nodiscard]] PolicyDecision decide(std::span<const CoreObservation> cores,
                                      Seconds now, Seconds dt, Rng& rng) {
    PolicyDecision d;
    decide_into(cores, now, dt, rng, d);
    return d;
  }

  /// Checkpoint support: serialize/restore internal decision state (e.g.
  /// hysteresis latches). Stateless policies keep the no-op defaults —
  /// symmetric, so round trips stay aligned either way.
  virtual void save_state(ckpt::Serializer&) const {}
  virtual void load_state(ckpt::Deserializer&) {}
};

/// Baseline: never recovers; every core always runs its demand.
[[nodiscard]] std::unique_ptr<RecoveryPolicy> make_no_recovery_policy();

/// Conventional power gating: cores idle when demand is zero (passive
/// recovery only — the pre-paper state of the art).
[[nodiscard]] std::unique_ptr<RecoveryPolicy> make_passive_idle_policy();

/// The paper's scheduled "push-pull" recovery: within every period, the
/// trailing `recovery_fraction` is spent in BTI active recovery, and EM
/// active recovery alternates on a duty cycle during operation.
///
/// Every factory below throws dh::Error for a period that is not finite
/// and > 0, a fraction or duty outside [0, 1], or `release > threshold`.
struct PeriodicPolicyParams {
  Seconds period{hours(48.0)};
  double bti_recovery_fraction = 0.25;
  double em_recovery_duty = 0.2;  // fraction of operating time reversed
};
[[nodiscard]] std::unique_ptr<RecoveryPolicy> make_periodic_active_policy(
    PeriodicPolicyParams params = {});

/// Sensor-driven: triggers BTI active recovery when the sensed Vth shift
/// crosses `threshold`, holds it until `release`, and engages EM recovery
/// mode on a fixed duty.
struct AdaptivePolicyParams {
  Volts threshold{0.015};
  Volts release{0.004};
  double em_recovery_duty = 0.2;
};
[[nodiscard]] std::unique_ptr<RecoveryPolicy> make_adaptive_sensor_policy(
    AdaptivePolicyParams params = {});

/// Dark-silicon rotation: `spares` cores are parked in BTI active
/// recovery at any time, rotating every `rotation_period`; the paper's
/// Fig. 12a heat-assisted healing falls out of the parked core sitting
/// next to hot active neighbours.
struct RotationPolicyParams {
  std::size_t spares = 2;
  Seconds rotation_period{hours(24.0)};
  double em_recovery_duty = 0.2;
};
[[nodiscard]] std::unique_ptr<RecoveryPolicy> make_dark_silicon_policy(
    RotationPolicyParams params = {});

}  // namespace dh::sched
