// The quasi-permanent BTI component and why in-time recovery removes it.
//
// Table I shows that even the strongest one-shot recovery (110 °C, −0.3 V)
// leaves > 27 % of the wearout after a long 24 h stress — yet Fig. 4 shows
// that *scheduled* 1 h : 1 h stress/recovery cycles keep the permanent
// component at "practically 0". The model that reconciles both
// observations (and matches the degradation-reversal literature the paper
// cites, Grasser IRPS'16): stress generates *precursor* defects that are
// still annealable, and precursors gradually *lock in* — a second-order
// (cooperative) process. Sustained stress lets the precursor population
// sit high for hours and lock; short stress intervals punctuated by active
// recovery anneal the precursors before meaningful locking happens.
//
//   stress:    dP_u/dt = g(V,T) * (1 - (P_u+P_l)/P_max) - k_lock * P_u^2
//              dP_l/dt = k_lock * P_u^2
//   recovery:  dP_u/dt = -P_u * r_anneal(V,T)
//              dP_l/dt = -P_l * r_anneal(V,T) * lock_anneal_ratio
//
// r_anneal is thermally activated and field-accelerated just like trap
// emission, so only the combined high-T + negative-V condition anneals
// precursors quickly.
//
// permanent.cpp holds the calibration as constants: the generation
// reference condition, V0 and Ea, P_max, k_lock and the four anneal
// constants. Only the generation rate at the reference condition is a
// parameter, because tools/calibrate_bti fits it.
#pragma once

#include "device/bti_types.hpp"

namespace dh::device {

class PermanentComponent {
 public:
  /// `gen_rate_ref_v_per_s` is the precursor generation rate (V/s) at the
  /// reference stress condition. Throws dh::Error unless it is finite and
  /// non-negative.
  explicit PermanentComponent(double gen_rate_ref_v_per_s);

  /// Advance by `dt` under `condition`. `dt` must pass require_valid_dt.
  void apply(const BtiCondition& condition, Seconds dt);
  void reset();

  /// Throws dh::Error unless `dt` is a step apply accepts: finite,
  /// non-negative, and short enough that its 60 s substep count fits an
  /// int.
  static void require_valid_dt(Seconds dt);

  [[nodiscard]] Volts unlocked() const { return Volts{pu_}; }
  [[nodiscard]] Volts locked() const { return Volts{pl_}; }
  [[nodiscard]] Volts total() const { return Volts{pu_ + pl_}; }

 private:
  double gen_rate_ref_v_per_s_;
  double pu_ = 0.0;  // annealable precursor population (V of Vth shift)
  double pl_ = 0.0;  // locked permanent population (V of Vth shift)
};

}  // namespace dh::device
