// Compact BTI model for system-scale simulation.
//
// The paper's stated future work is "high-level compact models that
// capture the accurate device and circuit level BTI/EM recovery
// information while being able to apply at the architectural and system
// level". This is that model: a two-pool (fast/slow) first-order
// abstraction of the trap ensemble plus the same precursor-locking
// permanent dynamics, cheap enough to step once per scheduling quantum for
// hundreds of cores over years of simulated lifetime. Its fidelity
// against the full ensemble is quantified by bench/ablation_compact_models.
#pragma once

#include <span>

#include "device/bti_types.hpp"

namespace dh::ckpt {
class Serializer;
class Deserializer;
}  // namespace dh::ckpt

namespace dh::device {

struct CompactBtiParams {
  // Saturation levels of the two recoverable pools (V of Vth shift) at the
  // reference stress condition.
  double fast_sat_v = 0.012;
  double slow_sat_v = 0.040;
  // Capture time constants at the reference stress condition.
  double fast_tau_stress_s = 600.0;     // ~10 min
  double slow_tau_stress_s = 3.6e5;     // ~100 h
  // Emission time constants at the reference *active accelerated* recovery
  // condition (110 C, -0.3 V).
  double fast_tau_recover_s = 300.0;
  double slow_tau_recover_s = 1.5e4;
  // Reference conditions the taus are quoted at.
  BtiCondition stress_ref{Volts{1.2}, Celsius{110.0}};
  BtiCondition recover_ref{Volts{-0.3}, Celsius{110.0}};
  // Arrhenius activation energy for both pools' kinetics.
  ElectronVolts kinetics_ea{0.55};
  // Voltage acceleration (per e-fold) for capture/emission.
  double v0 = 0.25;
  // Permanent precursor dynamics (same structure as the full model).
  double gen_rate_ref_v_per_s = 2.55e-7;
  double gen_v0 = 0.1;  // strong voltage acceleration of generation
  ElectronVolts gen_ea{0.80};  // generation activation energy
  double k_lock_per_v_s = 0.041;
  double anneal_rate_ref_per_s = 2.8e-4;  // at recover_ref
  double p_max_v = 0.040;
};

class CompactBti;

/// One interval of one device in a CompactBti::apply_batch call.
struct BtiJob {
  CompactBti* device = nullptr;
  BtiCondition condition{};
  Seconds dt{0.0};
};

class CompactBti {
 public:
  explicit CompactBti(CompactBtiParams params = {});

  /// Advance the device by `dt` under `condition`. `dt` must pass
  /// require_valid_dt.
  void apply(const BtiCondition& condition, Seconds dt);

  /// Apply every job as `job.device->apply(job.condition, job.dt)` would,
  /// bit for bit, but advance the stressed devices' precursor chains in
  /// lockstep so their independent substeps overlap in the pipeline.
  /// Every job's `dt` is checked, and a device appearing in two jobs is
  /// rejected, before any device changes: a throwing batch leaves every
  /// device as it was.
  static void apply_batch(std::span<const BtiJob> jobs);

  /// Throws dh::Error unless `dt` is a step apply accepts: finite,
  /// non-negative, and short enough that its 300 s substep count fits an
  /// int.
  static void require_valid_dt(Seconds dt);

  void reset();

  [[nodiscard]] Volts delta_vth() const;
  [[nodiscard]] BtiBreakdown breakdown() const;

  [[nodiscard]] const CompactBtiParams& params() const { return params_; }

  /// Checkpoint support: bit-exact snapshot of the pool states (params
  /// are construction inputs and not serialized).
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  CompactBtiParams params_;
  double fast_ = 0.0;
  double slow_ = 0.0;
  double pu_ = 0.0;
  double pl_ = 0.0;
};

}  // namespace dh::device
