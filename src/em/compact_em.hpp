// Compact per-segment EM model for system-scale simulation.
//
// The full Korhonen PDE is exact but too heavy to run for every segment of
// a power grid over years of simulated lifetime. This compact model
// approximates the cathode stress response with a small bank of
// first-order pools whose time constants straddle the nucleation
// timescale (a 3-term Prony approximation of the sqrt(t) kernel), and
// models the void phase as drift-velocity growth/healing with the same
// immobilization kinetics as the full solver. Accuracy against the PDE is
// quantified by bench/ablation_compact_models.
#pragma once

#include <array>

#include "common/units.hpp"
#include "em/material.hpp"
#include "em/wire.hpp"

namespace dh::ckpt {
class Serializer;
class Deserializer;
}  // namespace dh::ckpt

namespace dh::em {

struct CompactEmParams {
  WireGeometry wire;
  EmMaterialParams material;
  /// Reference condition: the middle pool's time constant is the analytic
  /// nucleation time there, and pool kinetics scale from its kappa.
  AmpsPerM2 j_ref{7.96e10};
  Celsius t_ref{230.0};
};

/// Everything one step needs that depends only on the temperature, `dt`
/// and the calibration, never on the wire's state or current. Built by
/// CompactEm::factors; valid for every CompactEm built from equal
/// CompactEmParams.
struct EmStepFactors {
  Kelvin temperature{0.0};
  double dt_s = 0.0;
  EmKinetics kinetics;  // kT, D(T), kappa(T), e*Z*rho(T), D*e*Z*rho(T)
  double sqrt_kappa = 0.0;
  std::array<double, 3> pool_decay{};  // exp(-dt / tau_k(T))
  double void_conversion = 0.0;        // 1 - exp(-fix_rate(T) * dt)
};

class CompactEm {
 public:
  explicit CompactEm(CompactEmParams params);

  /// `dt` must be finite and non-negative, and `j` finite; a rejected
  /// step changes nothing. Same bits as step(j, factors(temperature, dt)),
  /// but evaluates the void-phase factor only while a void is open.
  void step(AmpsPerM2 j, Celsius temperature, Seconds dt);
  /// The factors of a step of `dt` at `temperature` (`dt` finite and
  /// non-negative): one set serves every wire built from this one's
  /// CompactEmParams.
  [[nodiscard]] EmStepFactors factors(Celsius temperature, Seconds dt) const;
  /// One step with precomputed factors from factors() of a CompactEm with
  /// the same CompactEmParams. `j` must be finite; a rejected step changes
  /// nothing.
  void step(AmpsPerM2 j, const EmStepFactors& f);
  void reset();

  /// Approximate tensile stress at the currently stressed end (signed:
  /// positive = void tendency at the forward-current cathode).
  [[nodiscard]] Pascals end_stress() const;
  [[nodiscard]] bool void_open() const { return void_open_; }
  [[nodiscard]] Meters void_length() const {
    return Meters{void_mobile_m_ + void_fixed_m_};
  }
  [[nodiscard]] Meters fixed_void_length() const {
    return Meters{void_fixed_m_};
  }
  [[nodiscard]] bool broken() const { return broken_; }
  [[nodiscard]] Ohms resistance(Celsius t) const;

  /// Analytic nucleation time under constant stress (pi/4*(sc/G)^2/kappa).
  [[nodiscard]] static Seconds analytic_nucleation_time(
      const EmMaterialParams& material, const WireGeometry& wire, AmpsPerM2 j,
      Celsius t);

  [[nodiscard]] const CompactEmParams& params() const { return params_; }

  /// Checkpoint support: bit-exact snapshot of the pool and void states
  /// (taus/gains are derived from params at construction).
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  /// The pool and nucleation part of a step, then the void part (run
  /// while a void is open): the only copy of the step arithmetic. Only
  /// advance_void reads `f.void_conversion`.
  void advance_pools(AmpsPerM2 j, const EmStepFactors& f);
  void advance_void(AmpsPerM2 j, const EmStepFactors& f);
  /// factors() without the void conversion.
  [[nodiscard]] EmStepFactors pool_factors(Celsius temperature,
                                           Seconds dt) const;
  [[nodiscard]] double void_conversion(const EmStepFactors& f) const;

  CompactEmParams params_;
  double kappa_ref_ = 0.0;         // kappa at t_ref
  std::array<double, 3> taus_{};   // pool time constants (s)
  std::array<double, 3> gains_{};  // pool saturation gains (Pa per unit G*sqrt..)
  std::array<double, 3> pools_{};  // pool states (Pa)
  bool void_open_ = false;
  int void_polarity_ = 0;  // +1: forward-current cathode end; -1: other end
  double void_mobile_m_ = 0.0;
  double void_fixed_m_ = 0.0;
  bool broken_ = false;
};

}  // namespace dh::em
