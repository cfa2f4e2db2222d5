// On-chip power-delivery-network model: a resistor mesh for the local
// VDD grid fed from pad/global-network connections, solved for IR drop
// and per-segment current density. This is the substrate the paper's EM
// story lives on: "EM is especially critical for power delivery networks"
// — local grids built in thin lower metals carry high unidirectional DC
// current density, while the global top-metal grid is wide, thick, and
// comparatively immortal (Fig. 11).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/math/linalg.hpp"
#include "common/math/sparse/spd_solver.hpp"
#include "common/units.hpp"
#include "em/wire.hpp"

namespace dh::ckpt {
class Serializer;
class Deserializer;
}  // namespace dh::ckpt

namespace dh::pdn {

struct PdnParams {
  std::size_t rows = 8;
  std::size_t cols = 8;
  /// Local-layer segment between adjacent grid nodes.
  em::WireGeometry segment_wire{
      .length = Meters{200e-6},
      .width = Meters{0.5e-6},
      .thickness = Meters{0.2e-6},
      .resistivity_ref = 2.2e-8,
      .reference_temperature = Celsius{20.0},
      .tcr_per_k = 3.93e-3,
      .liner_ohm_per_m = 2.5e8,
  };
  Volts vdd{1.0};
  /// Resistance from each pad node up through the global grid and bump.
  Ohms pad_resistance{0.05};
  /// Pad nodes; empty = the four corners.
  std::vector<std::size_t> pad_nodes;
};

/// Counters for the cached IR solver (see PdnGrid::solve).
struct PdnSolveStats {
  std::size_t solves = 0;
  std::size_t factorizations = 0;
  /// CG iterations spent refining against stale (drifted) factors — the
  /// sparse successor of the dense cache's iterative-refinement sweeps.
  std::size_t refinement_iterations = 0;
  /// Drift solves whose CG stalled and that refactorized anyway (each is
  /// also counted in `factorizations`).
  std::size_t fallback_refactorizations = 0;
  /// Total preconditioned-CG iterations across all solves (refinement of
  /// exact solves on aged grids plus every drift-refinement iteration).
  std::size_t cg_iterations = 0;
};

struct PdnSolution {
  std::vector<double> node_voltage;
  std::vector<double> segment_current;  // signed, node a -> node b
  double worst_drop_v = 0.0;
  std::size_t worst_node = 0;
};

class PdnGrid {
 public:
  explicit PdnGrid(PdnParams params);

  [[nodiscard]] std::size_t node_count() const {
    return params_.rows * params_.cols;
  }
  [[nodiscard]] std::size_t node_index(std::size_t row, std::size_t col) const;

  struct Segment {
    std::size_t a, b;
  };
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] const Segment& segment(std::size_t i) const;

  /// Fresh per-segment resistances at temperature t.
  [[nodiscard]] std::vector<double> fresh_segment_resistances(
      Celsius t) const;

  /// Solve the mesh: `load_amps` is the current drawn at each node (each
  /// finite); `segment_resistance` allows aged overrides (same order as
  /// segments, each positive).
  ///
  /// Runs on the sparse engine (common/math/sparse): the conductances are
  /// stamped in place into a band matrix sized at construction and
  /// factored by banded Cholesky, and the factor is cached until any
  /// segment resistance drifts more than 5% (relative) from the
  /// resistances it was built from. In between, the stale factor
  /// preconditions a CG solve against the true conductances (applied
  /// matrix-free), so the answer matches a fresh dense solve to ~1e-12
  /// while costing only a few iterations.
  ///
  /// The cache makes this method non-reentrant: a PdnGrid instance must
  /// not be solved from two threads at once (parallel sweeps give each
  /// task its own grid).
  ///
  /// Fills `out`, reusing its vectors: once they and the grid's scratch
  /// are sized, a solve allocates nothing. A solve that throws leaves
  /// `out` unspecified.
  void solve(std::span<const double> load_amps,
             std::span<const double> segment_resistance,
             PdnSolution& out) const;
  /// The same solve into a new PdnSolution.
  [[nodiscard]] PdnSolution solve(
      std::span<const double> load_amps,
      std::span<const double> segment_resistance) const;

  /// Reference solver: assembles and dense-solves (LU) from scratch, no
  /// cache — the agreement baseline the sparse engine is tested against.
  [[nodiscard]] PdnSolution solve_uncached(
      std::span<const double> load_amps,
      std::span<const double> segment_resistance) const;

  /// Counters for the cached solver (how often it actually refactorized).
  [[nodiscard]] const PdnSolveStats& solve_stats() const {
    return solve_stats_;
  }

  /// Current density in a segment carrying `current`.
  [[nodiscard]] AmpsPerM2 current_density(double current_a) const;

  /// Checkpoint support for the cached-factor state. The solve path a
  /// call takes (fresh factorization vs stale-factor drift CG) depends on
  /// which resistances the cached factor was built from, and the two
  /// paths agree only to ~1e-12 — so bit-identical resume requires
  /// rebuilding the factor from the *saved* resistances, not the current
  /// ones. load_cache does that, then restores the solve counters so
  /// summaries match an uninterrupted run.
  void save_cache(ckpt::Serializer& s) const;
  void load_cache(ckpt::Deserializer& d);

  [[nodiscard]] const PdnParams& params() const { return params_; }
  [[nodiscard]] const std::vector<std::size_t>& pads() const { return pads_; }

 private:
  [[nodiscard]] math::Matrix assemble_conductance(
      std::span<const double> segment_resistance) const;
  /// Throws dh::Error unless both vectors match the grid, every load is
  /// finite and every segment resistance positive.
  void check_inputs(std::span<const double> load_amps,
                    std::span<const double> segment_resistance) const;
  /// rhs = pad injection minus `load_amps`.
  void assemble_rhs(std::span<const double> load_amps,
                    std::vector<double>& rhs) const;
  /// y = G(segment_resistance) * x without forming the matrix.
  void apply_conductance(std::span<const double> segment_resistance,
                         std::span<const double> x,
                         std::vector<double>& y) const;
  /// Fills the segment currents and worst drop of `sol` from its node
  /// voltages.
  void finish_solution(std::span<const double> segment_resistance,
                       PdnSolution& sol) const;
  /// Re-stamps the conductances into solver_ and factors them in place.
  /// A factorization that throws leaves the grid unfactored.
  void refactorize(std::span<const double> segment_resistance) const;

  PdnParams params_;
  std::vector<Segment> segments_;
  std::vector<std::size_t> pads_;
  // Cached-solver state (logically const: an acceleration structure).
  mutable math::sparse::SpdSolver solver_;
  mutable bool factored_ = false;
  mutable std::vector<double> solver_segment_r_;  // r when factorized
  mutable std::vector<double> rhs_;               // solve() scratch
  mutable PdnSolveStats solve_stats_;
};

}  // namespace dh::pdn
