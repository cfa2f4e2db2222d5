// SRAM array with data-pattern statistics and recovery-boost scheduling —
// the array-level view of [17]'s proactive wearout recovery, driven by
// our calibrated BTI model.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "sram/sram_cell.hpp"

namespace dh::sram {

/// How the stored data behaves over time.
enum class DataPattern {
  kStatic,        // cells hold their initial bits forever (worst case)
  kFlipping,      // bits re-randomized every step (signal-prob balancing)
};

/// Each cell stores 1 with probability 0.5.
struct SramArrayParams {
  std::size_t cells = 64;
  DataPattern pattern = DataPattern::kStatic;
  std::uint64_t seed = 17;
};

struct SramArrayHealth {
  Volts worst_snm{0.0};
  Volts mean_snm{0.0};
  Volts worst_pmos_dvth{0.0};
};

class SramArray {
 public:
  explicit SramArray(SramArrayParams params);

  /// Advance the whole array: `boost_fraction` of the quantum is spent in
  /// recovery boost (cells idle), after the rest is spent holding data.
  /// Every cell's devices step in lockstep (one CompactBti::apply_batch of
  /// SramCell::jobs), with the same results bit for bit as SramCell::step
  /// cell by cell, hold then boost. `dt` and `temperature` are checked
  /// before any bit is drawn or any cell changes. Allocates nothing.
  void step(Celsius temperature, Seconds dt, double boost_fraction = 0.0);

  /// Full-accuracy health scan (computes every cell's SNM; O(cells)
  /// circuit solves — use sparingly).
  [[nodiscard]] SramArrayHealth scan_health() const;

  /// Cheap health proxy: SNM of the cell with the worst PMOS asymmetry.
  [[nodiscard]] SramArrayHealth worst_cell_health() const;

  [[nodiscard]] const SramCell& cell(std::size_t i) const;

 private:
  SramArrayParams params_;
  std::vector<SramCell> cells_;
  std::vector<bool> bits_;
  Rng rng_;
  std::vector<device::BtiJob> jobs_;  // step's batch, sized once
};

}  // namespace dh::sram
