#include "thermal/thermal_grid.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh::thermal {

namespace {

constexpr double kDieThicknessM = 0.5e-3;
constexpr double kSiliconKWPerMK = 120.0;
// The lateral conductance k * t must be positive, or the Laplacian is not
// SPD and the factorization would fail with a pivot error.
static_assert(kSiliconKWPerMK > 0.0 && kDieThicknessM > 0.0,
              "lateral conductance must be positive");

ThermalGridParams validated(ThermalGridParams p) {
  DH_REQUIRE(p.rows >= 1 && p.cols >= 1, "grid must be non-empty");
  DH_REQUIRE(p.vertical_g_w_per_k > 0.0,
             "package conductance must be positive");
  // A NaN ambient would turn every tile temperature NaN.
  DH_REQUIRE(std::isfinite(p.ambient.value()),
             "ambient temperature must be finite");
  return p;
}

math::sparse::SpdSolver conductance(const ThermalGridParams& p) {
  // 5-point stencil: vertical escape on the diagonal, lateral coupling
  // k * (w * t) / w = k * t to each mesh neighbour. Row-major numbering
  // puts the farthest neighbour a row (cols) away, or next door when
  // there is only one row.
  math::sparse::SpdSolver g(p.rows * p.cols, p.rows > 1 ? p.cols : 1);
  const double g_lat = kSiliconKWPerMK * kDieThicknessM;
  for (std::size_t r = 0; r < p.rows; ++r) {
    for (std::size_t c = 0; c < p.cols; ++c) {
      const std::size_t i = r * p.cols + c;
      g.add_diagonal(i, p.vertical_g_w_per_k);
      if (r + 1 < p.rows) g.add_edge(i, i + p.cols, g_lat);
      if (c + 1 < p.cols) g.add_edge(i, i + 1, g_lat);
    }
  }
  g.factorize();
  return g;
}

}  // namespace

ThermalGrid::ThermalGrid(ThermalGridParams params)
    : params_(validated(params)),
      steady_(conductance(params_)),
      power_(tile_count(), 0.0),
      temp_rise_(tile_count(), 0.0) {}

std::size_t ThermalGrid::index(std::size_t row, std::size_t col) const {
  DH_REQUIRE(row < params_.rows && col < params_.cols,
             "tile coordinates out of range");
  return row * params_.cols + col;
}

void ThermalGrid::set_power(std::size_t tile, Watts p) {
  DH_REQUIRE(tile < tile_count(), "tile index out of range");
  DH_REQUIRE(std::isfinite(p.value()) && p.value() >= 0.0,
             "power must be finite and non-negative");
  power_[tile] = p.value();
}

void ThermalGrid::set_power_map(std::span<const double> watts) {
  DH_REQUIRE(watts.size() == tile_count(), "power map size mismatch");
  // Check the whole map before applying any of it, so a rejected map
  // leaves the previous one intact.
  for (const double w : watts) {
    DH_REQUIRE(std::isfinite(w) && w >= 0.0,
               "power must be finite and non-negative");
  }
  std::copy(watts.begin(), watts.end(), power_.begin());
}

void ThermalGrid::solve_steady() { steady_.solve(power_, temp_rise_); }

Celsius ThermalGrid::temperature(std::size_t tile) const {
  DH_REQUIRE(tile < tile_count(), "tile index out of range");
  return Celsius{params_.ambient.value() + temp_rise_[tile]};
}

Celsius ThermalGrid::max_temperature() const {
  const double m = *std::max_element(temp_rise_.begin(), temp_rise_.end());
  return Celsius{params_.ambient.value() + m};
}

Celsius ThermalGrid::mean_temperature() const {
  double acc = 0.0;
  for (const double t : temp_rise_) acc += t;
  return Celsius{params_.ambient.value() +
                 acc / static_cast<double>(tile_count())};
}

void ThermalGrid::save_state(ckpt::Serializer& s) const {
  s.begin_section("THRM");
  s.write_f64_vec(power_);
  s.write_f64_vec(temp_rise_);
}

void ThermalGrid::load_state(ckpt::Deserializer& d) {
  d.expect_section("THRM");
  std::vector<double> power = d.read_f64_vec();
  std::vector<double> temp_rise = d.read_f64_vec();
  DH_REQUIRE(power.size() == tile_count() && temp_rise.size() == tile_count(),
             "thermal snapshot tile count does not match this grid");
  power_ = std::move(power);
  temp_rise_ = std::move(temp_rise);
}

}  // namespace dh::thermal
