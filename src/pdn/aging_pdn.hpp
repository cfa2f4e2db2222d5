// PDN with per-segment EM aging and assist-circuitry recovery support.
//
// Every local-grid segment carries a compact EM state driven by the IR
// solve's per-segment current density. The assist circuitry's *EM Active
// Recovery* mode reverses the current through the whole local grid (same
// magnitude — the load keeps running), which this model applies as a sign
// flip on every segment's density. Segments whose Blech product sits
// below the critical threshold are immortal and skipped.
#pragma once

#include <span>
#include <vector>

#include "em/compact_em.hpp"
#include "pdn/pdn_grid.hpp"

namespace dh::pdn {

struct AgingPdnStats {
  double worst_drop_v = 0.0;
  double max_void_len_m = 0.0;
  std::size_t nucleated_segments = 0;
  std::size_t broken_segments = 0;
  std::size_t immortal_segments = 0;  // Blech-filtered
  // Sparse-engine counters for the IR solves driving the aging loop
  // (copied from PdnGrid::solve_stats so harnesses can price the solver).
  std::size_t solver_factorizations = 0;
  std::size_t solver_cg_iterations = 0;
};

class AgingPdn {
 public:
  AgingPdn(PdnParams pdn_params, em::EmMaterialParams material);

  /// Advance the grid for `dt` (finite, >= 0; a rejected dt changes
  /// nothing): solve IR with the current (aged) segment resistances, then
  /// age each mortal segment at its own current density, all with one
  /// set of compact-EM factors for (temperature, dt). `em_recovery_mode`
  /// reverses every segment current (assist circuitry). Once the first
  /// step has sized the solution and solver buffers, a step allocates
  /// nothing.
  void step(std::span<const double> load_amps, Celsius temperature,
            Seconds dt, bool em_recovery_mode = false);

  [[nodiscard]] const PdnGrid& grid() const { return grid_; }
  /// Compact EM state of segment `s` (same order as the grid's segments).
  [[nodiscard]] const em::CompactEm& segment_em(std::size_t s) const;
  [[nodiscard]] const PdnSolution& last_solution() const { return last_; }
  [[nodiscard]] AgingPdnStats stats() const;
  [[nodiscard]] Seconds elapsed() const { return Seconds{elapsed_s_}; }

  /// True when any segment has broken or the worst-case IR drop exceeds
  /// `drop_limit` of VDD.
  [[nodiscard]] bool failed(double drop_limit_fraction = 0.10) const;

  /// Checkpoint support: per-segment EM states, aged resistances, the
  /// last solution, and the grid's cached-factor state (see
  /// PdnGrid::save_cache for why the cache matters for bit-identity).
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  PdnGrid grid_;
  em::EmMaterialParams material_;
  std::vector<em::CompactEm> segment_em_;
  std::vector<double> segment_r_;
  std::vector<bool> immortal_;
  PdnSolution last_;
  double elapsed_s_ = 0.0;
};

}  // namespace dh::pdn
