// 6T SRAM cell with per-device BTI wearout — the substrate for the
// "recovery boost" idea the paper builds on (Shin et al. [17]: raise the
// gate voltages of a memory cell to put PMOS devices into recovery
// enhancement mode). The cell's health metric is its hold static noise
// margin (SNM), computed from the two cross-coupled inverters' transfer
// curves through the MNA circuit simulator.
//
// NBTI asymmetry: in a cell holding a constant value, the PMOS on the
// stored-"1" side conducts (gate low -> |Vsg| = VDD) and ages, while the
// other PMOS rests. Data that never flips therefore skews the butterfly
// curve — exactly the failure mode recovery boost targets.
#pragma once

#include <array>
#include <vector>

#include "common/units.hpp"
#include "device/compact_bti.hpp"

namespace dh::sram {

/// What the cell spends a time slice doing.
enum class CellMode {
  kHold,          // statically holding `stored_bit`
  kRecoveryBoost, // both PMOS driven into active recovery (cell idle)
};

/// Every cell is sized the same (sram_cell.cpp): 0.9 V supply, weak
/// pull-ups against strong pull-downs (standard 6T ratioing).
class SramCell {
 public:
  /// Advance wearout. While holding, the PMOS on the side storing "1"
  /// is under NBTI stress; in recovery-boost mode both PMOS heal.
  void step(CellMode mode, bool stored_bit, Celsius temperature,
            Seconds dt);

  /// The two PMOS jobs (left, then right) of a quantum spent holding
  /// `stored_bit` for `hold` and then in recovery boost for `boost`, for
  /// stepping many cells in one CompactBti::apply_batch. `step` applies
  /// the jobs with `hold` or `boost` set to its `dt`.
  [[nodiscard]] std::array<device::BtiJob, 2> jobs(bool stored_bit,
                                                   Celsius temperature,
                                                   Seconds hold,
                                                   Seconds boost);

  /// Write the opposite bit (models data-flipping/rebalancing policies;
  /// free in this model — the stress side just changes on the next step).
  [[nodiscard]] Volts left_pmos_dvth() const;
  [[nodiscard]] Volts right_pmos_dvth() const;

  /// Hold static noise margin of the aged cell, in volts (the side of
  /// the largest square embedded in the butterfly plot).
  [[nodiscard]] Volts hold_snm() const;

  /// Fresh-cell SNM (reference).
  [[nodiscard]] Volts fresh_snm() const;

 private:
  device::CompactBti left_pmos_;   // drives node Q high (stressed when Q=1)
  device::CompactBti right_pmos_;  // drives node Qb high (stressed when Q=0)
};

/// Static noise margin from two inverter voltage transfer curves
/// (45-degree rotation method). `vtc1` maps Vin->Vout for inverter 1,
/// `vtc2` for inverter 2; both sampled on `vin` (volts, increasing).
[[nodiscard]] double snm_from_vtcs(const std::vector<double>& vin,
                                   const std::vector<double>& vtc1,
                                   const std::vector<double>& vtc2);

/// Inverter VTC with aged device thresholds, solved point by point with
/// the MNA simulator.
[[nodiscard]] std::vector<double> inverter_vtc(
    Volts pmos_dvth, Volts nmos_dvth, const std::vector<double>& vin);

}  // namespace dh::sram
