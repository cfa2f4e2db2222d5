// The paper's assist circuitry (Fig. 8): a symmetric header/footer scheme
// around the local VDD/VSS grids supporting three modes:
//
//   Normal            — current flows VDD -> gridA -> gridB -> load -> VSS grid.
//   EM Active Recovery — the grid drive and tap ends are swapped, so the
//                        current through both grids reverses with the same
//                        magnitude (the load still sees a normal supply).
//   BTI Active Recovery — the idle load's VDD/VSS pins are cross-connected
//                        (loadVDD -> VSS + dV, loadVSS -> VDD - dV), putting
//                        every held-input device into negative-bias active
//                        recovery (Fig. 8c).
//
// We implement the explicit 10-transistor form (8 grid pass devices + the
// 2 BTI cross devices); the paper's 8-T sketch shares the cross pair with
// the grid taps, which changes nothing functionally.
//
// The load is a bank of N identical units (the paper uses parallel ring
// oscillators); each unit draws an activity current when operating and a
// leakage current when idle.
#pragma once

#include "circuit/mna.hpp"
#include "common/units.hpp"

namespace dh::circuit {

enum class AssistMode { kNormal, kEmActiveRecovery, kBtiActiveRecovery };

[[nodiscard]] const char* to_string(AssistMode mode);

/// DC operating point summary of the assist circuitry in one mode.
struct AssistOperating {
  AssistMode mode;
  double load_vdd = 0.0;      // V at the load's VDD pin
  double load_vss = 0.0;      // V at the load's VSS pin
  double grid_current = 0.0;  // A through the VDD grid (+ = Normal direction)
  /// Effective supply seen by the load.
  [[nodiscard]] double effective_supply() const {
    return load_vdd - load_vss;
  }
};

class AssistCircuit {
 public:
  /// A bank of `load_units` (>= 1) identical load units; the rest of the
  /// sizing is fixed (assist.cpp).
  explicit AssistCircuit(int load_units = 1);

  /// DC operating point in the given mode (load active in Normal/EM,
  /// idle in BTI recovery).
  [[nodiscard]] AssistOperating solve(AssistMode mode) const;

  /// Transient waveforms across a mode transition at `t_switch`;
  /// probes: vdd-grid current, load VDD and VSS pins (Fig. 9).
  [[nodiscard]] TransientResult transition(AssistMode from, AssistMode to,
                                           Seconds t_switch, Seconds t_end,
                                           Seconds dt) const;

  /// Time for the VDD grid node to settle within `settle_band` volts of
  /// its final value after the mode switch (Fig. 10's switching time).
  [[nodiscard]] Seconds switching_time(AssistMode from, AssistMode to,
                                       double settle_band = 0.02) const;

  /// Load delay under the given mode's effective supply, normalized to an
  /// ideal (droop-free) supply: alpha-power law (Fig. 10's load delay).
  [[nodiscard]] double normalized_load_delay(AssistMode mode) const;

  /// Negative gate bias magnitude available for BTI recovery (paper
  /// quotes ~0.6-0.8 V — comfortably beyond the -0.3 V its experiments
  /// needed).
  [[nodiscard]] Volts bti_recovery_bias() const;

 private:
  struct Built;
  [[nodiscard]] Built build(AssistMode dc_mode, bool transient,
                            AssistMode to_mode, double t_switch) const;

  int load_units_;
};

}  // namespace dh::circuit
