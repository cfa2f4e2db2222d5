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
// The calibration is one fixed set of constants in compact_bti.cpp, so a
// device is just its four pool states.
#pragma once

#include <span>

#include "device/bti_types.hpp"

namespace dh::ckpt {
class Serializer;
class Deserializer;
}  // namespace dh::ckpt

namespace dh::device {

class CompactBti;

/// One device's quantum in a CompactBti::apply_batch call: `condition`
/// for `dt`, then the non-stress `relax` condition for `relax_dt`. A
/// zero-length interval is skipped.
struct BtiJob {
  CompactBti* device = nullptr;
  BtiCondition condition{};
  Seconds dt{0.0};
  BtiCondition relax{};
  Seconds relax_dt{0.0};
};

class CompactBti {
 public:
  /// Advance the device by `dt` under `condition`. `dt` must pass
  /// require_valid_dt, the temperature require_valid_temperature, and the
  /// gate bias must be finite.
  void apply(const BtiCondition& condition, Seconds dt);

  /// Apply every job as `d.apply(job.condition, job.dt);
  /// d.apply(job.relax, job.relax_dt)` would, bit for bit, but advance the
  /// stressed devices' precursor chains in lockstep so their independent
  /// substeps overlap in the pipeline. Both intervals' lengths,
  /// temperatures and biases are checked, a stress `relax` with a
  /// non-zero `relax_dt` and a device appearing in two jobs are rejected,
  /// all before any device changes: a throwing batch leaves every device
  /// as it was.
  static void apply_batch(std::span<const BtiJob> jobs);

  /// Throws dh::Error unless `dt` is a step apply accepts: finite,
  /// non-negative, and short enough that its 300 s substep count fits an
  /// int.
  static void require_valid_dt(Seconds dt);

  /// Throws dh::Error unless `temperature` is above absolute zero (which
  /// also rejects NaN).
  static void require_valid_temperature(Celsius temperature);

  void reset();

  [[nodiscard]] Volts delta_vth() const;
  [[nodiscard]] BtiBreakdown breakdown() const;

  /// Checkpoint support: bit-exact snapshot of the pool states.
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  struct Lanes;  // apply_batch's lockstep chains (compact_bti.cpp)

  double fast_ = 0.0;
  double slow_ = 0.0;
  double pu_ = 0.0;
  double pl_ = 0.0;
};

}  // namespace dh::device
