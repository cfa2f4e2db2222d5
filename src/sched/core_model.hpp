// A processor core for the lifetime simulator: compact BTI wearout state,
// alpha-power fmax model, and a power model feeding the thermal grid and
// PDN.
#pragma once

#include <span>

#include "common/units.hpp"
#include "device/compact_bti.hpp"
#include "device/ring_oscillator.hpp"

namespace dh::sched {

/// Per-step action assigned to a core by the recovery policy.
enum class CoreAction {
  kRun,               // execute workload (BTI stress scaled by utilization)
  kIdle,              // power-gated: passive recovery only
  kBtiActiveRecovery, // assist circuitry BTI mode: negative bias applied
};

[[nodiscard]] const char* to_string(CoreAction a);

/// Every core runs at 0.9 V with a 2 GHz fresh fmax (core_model.cpp).
struct CoreParams {
  Watts dynamic_power_peak{1.2};  // at utilization 1
};

class Core {
 public:
  explicit Core(CoreParams params);

  /// Advance one scheduling quantum. `utilization` applies to kRun. `dt`
  /// must pass CompactBti::require_valid_dt for every action.
  void step(CoreAction action, double utilization, Celsius temperature,
            Seconds dt);

  /// Advance every core one quantum, with the same results bit for bit as
  /// `cores[i].step(actions[i], utilization[i], temperatures[i], dt)` for
  /// each i, but with all cores' BTI stepped in lockstep
  /// (CompactBti::apply_batch, one job per core). Every utilization,
  /// temperature and `dt` (which must pass CompactBti::require_valid_dt)
  /// are checked before any core changes. Allocates nothing.
  static void step_all(std::span<Core> cores,
                       std::span<const CoreAction> actions,
                       std::span<const double> utilization,
                       std::span<const Celsius> temperatures, Seconds dt);

  [[nodiscard]] Volts delta_vth() const { return bti_.delta_vth(); }
  [[nodiscard]] device::BtiBreakdown bti_breakdown() const {
    return bti_.breakdown();
  }

  /// Maximum clock frequency the aged core sustains.
  [[nodiscard]] Hertz fmax() const;
  /// Fractional frequency degradation vs fresh (the guardband driver).
  [[nodiscard]] double degradation() const;

  /// Power drawn under the given action/utilization/temperature.
  [[nodiscard]] Watts power(CoreAction action, double utilization,
                            Celsius temperature) const;
  /// Supply current corresponding to `power`.
  [[nodiscard]] Amps supply_current(CoreAction action, double utilization,
                                    Celsius temperature) const;

  [[nodiscard]] const CoreParams& params() const { return params_; }

  /// Checkpoint support: the BTI state is the core's only mutable state
  /// (the ring oscillator is fixed).
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  /// The BTI job one quantum puts on this core: a kRun stresses it for
  /// `dt·u` and then relaxes it for `dt·(1 − u)`; the other actions hold
  /// one condition for `dt`.
  device::BtiJob quantum_job(CoreAction action, double utilization,
                             Celsius temperature, Seconds dt);

  CoreParams params_;
  device::CompactBti bti_;
  device::RingOscillator ro_;
};

}  // namespace dh::sched
