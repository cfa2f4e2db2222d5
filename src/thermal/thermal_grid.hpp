// HotSpot-style 2-D steady-state thermal grid of the die.
//
// Each floorplan tile couples laterally to its neighbours through silicon
// and vertically to the heat sink/ambient through the package. Used by the
// system-level simulator for two things the paper calls out: (1) wearout
// acceleration with local temperature, and (2) *heat-assisted recovery* —
// an idle core parked next to hot neighbours recovers faster because its
// temperature rides up on theirs (Fig. 12a).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/math/sparse/spd_solver.hpp"
#include "common/units.hpp"

namespace dh::ckpt {
class Serializer;
class Deserializer;
}  // namespace dh::ckpt

namespace dh::thermal {

/// Tiles couple laterally through a 0.5 mm silicon die (thermal_grid.cpp).
struct ThermalGridParams {
  std::size_t rows = 4;
  std::size_t cols = 4;
  /// Vertical conductance to ambient per tile (package + heatsink), W/K.
  double vertical_g_w_per_k = 0.15;
  Celsius ambient{45.0};  // must be finite
};

class ThermalGrid {
 public:
  explicit ThermalGrid(ThermalGridParams params);

  [[nodiscard]] std::size_t tile_count() const {
    return params_.rows * params_.cols;
  }
  [[nodiscard]] std::size_t index(std::size_t row, std::size_t col) const;

  /// Power must be finite and non-negative; a rejected map changes
  /// nothing.
  void set_power(std::size_t tile, Watts p);
  void set_power_map(std::span<const double> watts);

  /// Steady-state temperatures for the current power map, solved in
  /// place: allocates nothing.
  void solve_steady();

  [[nodiscard]] Celsius temperature(std::size_t tile) const;
  [[nodiscard]] Celsius max_temperature() const;
  [[nodiscard]] Celsius mean_temperature() const;
  [[nodiscard]] const ThermalGridParams& params() const { return params_; }

  /// Checkpoint support. Saves the power map and temperature field; the
  /// factorization depends only on the parameters, so a restored grid
  /// keeps the one it was constructed with.
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  ThermalGridParams params_;
  /// Factorized conductance Laplacian + vertical escape.
  math::sparse::SpdSolver steady_;
  std::vector<double> power_;
  std::vector<double> temp_rise_;  // above ambient
};

}  // namespace dh::thermal
