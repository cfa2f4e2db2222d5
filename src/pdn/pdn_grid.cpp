#include "pdn/pdn_grid.hpp"

#include <algorithm>
#include <cmath>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh::pdn {

namespace {

/// Relative per-segment resistance drift that forces the cached factor to
/// be rebuilt. Between refactorizations the stale factor preconditions a
/// CG solve against the *true* conductances, so accuracy does not depend
/// on the tolerance — only the CG iteration count does.
constexpr double kRefactorTolerance = 0.05;

PdnParams validated(PdnParams p) {
  DH_REQUIRE(p.rows >= 2 && p.cols >= 2, "PDN grid needs at least 2x2 nodes");
  DH_REQUIRE(p.vdd.value() > 0.0, "PDN VDD must be positive");
  DH_REQUIRE(p.pad_resistance.value() > 0.0,
             "pad resistance must be positive");
  return p;
}

}  // namespace

// A row-major mesh couples node i to i + cols at most: bandwidth cols.
PdnGrid::PdnGrid(PdnParams params)
    : params_(validated(std::move(params))),
      solver_(node_count(), params_.cols) {
  for (std::size_t r = 0; r < params_.rows; ++r) {
    for (std::size_t c = 0; c < params_.cols; ++c) {
      const std::size_t i = r * params_.cols + c;
      if (c + 1 < params_.cols) segments_.push_back({i, i + 1});
      if (r + 1 < params_.rows) segments_.push_back({i, i + params_.cols});
    }
  }
  if (params_.pad_nodes.empty()) {
    pads_ = {node_index(0, 0), node_index(0, params_.cols - 1),
             node_index(params_.rows - 1, 0),
             node_index(params_.rows - 1, params_.cols - 1)};
  } else {
    pads_ = params_.pad_nodes;
    for (const std::size_t p : pads_) {
      DH_REQUIRE(p < node_count(), "pad node out of range");
    }
  }
  // Without at least one pad the conductance matrix has no path to VDD
  // and is exactly singular — fail here with a clear message instead of
  // letting the factorization hit a zero pivot mid-simulation.
  DH_REQUIRE(!pads_.empty(), "PDN needs at least one pad node");
  solver_segment_r_.resize(segments_.size());
}

std::size_t PdnGrid::node_index(std::size_t row, std::size_t col) const {
  DH_REQUIRE(row < params_.rows && col < params_.cols,
             "node coordinates out of range");
  return row * params_.cols + col;
}

const PdnGrid::Segment& PdnGrid::segment(std::size_t i) const {
  DH_REQUIRE(i < segments_.size(), "segment index out of range");
  return segments_[i];
}

std::vector<double> PdnGrid::fresh_segment_resistances(Celsius t) const {
  const double r = params_.segment_wire.resistance_at(to_kelvin(t)).value();
  return std::vector<double>(segments_.size(), r);
}

math::Matrix PdnGrid::assemble_conductance(
    std::span<const double> segment_resistance) const {
  const std::size_t n = node_count();
  math::Matrix g(n, n, 0.0);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const double cond = 1.0 / segment_resistance[s];
    const auto [a, b] = segments_[s];
    g(a, a) += cond;
    g(b, b) += cond;
    g(a, b) -= cond;
    g(b, a) -= cond;
  }
  const double g_pad = 1.0 / params_.pad_resistance.value();
  for (const std::size_t p : pads_) {
    g(p, p) += g_pad;
  }
  return g;
}

void PdnGrid::assemble_rhs(std::span<const double> load_amps,
                           std::vector<double>& rhs) const {
  const std::size_t n = node_count();
  rhs.assign(n, 0.0);
  const double g_pad = 1.0 / params_.pad_resistance.value();
  for (const std::size_t p : pads_) {
    rhs[p] += g_pad * params_.vdd.value();
  }
  for (std::size_t i = 0; i < n; ++i) rhs[i] -= load_amps[i];
}

void PdnGrid::check_inputs(
    std::span<const double> load_amps,
    std::span<const double> segment_resistance) const {
  DH_REQUIRE(load_amps.size() == node_count(), "load vector size mismatch");
  DH_REQUIRE(segment_resistance.size() == segments_.size(),
             "segment resistance vector size mismatch");
  // A NaN or infinite load spreads through the substitution to every
  // node, and NaN drops never compare above the worst one.
  for (const double amps : load_amps) {
    DH_REQUIRE(std::isfinite(amps), "node load must be finite");
  }
  for (const double r : segment_resistance) {
    DH_REQUIRE(r > 0.0, "segment resistance must be positive");
  }
}

void PdnGrid::apply_conductance(std::span<const double> segment_resistance,
                                std::span<const double> x,
                                std::vector<double>& y) const {
  y.assign(node_count(), 0.0);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const auto [a, b] = segments_[s];
    const double flow = (x[a] - x[b]) / segment_resistance[s];
    y[a] += flow;
    y[b] -= flow;
  }
  const double g_pad = 1.0 / params_.pad_resistance.value();
  for (const std::size_t p : pads_) y[p] += g_pad * x[p];
}

void PdnGrid::finish_solution(std::span<const double> segment_resistance,
                              PdnSolution& sol) const {
  sol.segment_current.resize(segments_.size());
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const auto [a, b] = segments_[s];
    sol.segment_current[s] =
        (sol.node_voltage[a] - sol.node_voltage[b]) / segment_resistance[s];
  }
  sol.worst_drop_v = 0.0;
  sol.worst_node = 0;
  for (std::size_t i = 0; i < sol.node_voltage.size(); ++i) {
    const double drop = params_.vdd.value() - sol.node_voltage[i];
    if (drop > sol.worst_drop_v) {
      sol.worst_drop_v = drop;
      sol.worst_node = i;
    }
  }
}

void PdnGrid::refactorize(
    std::span<const double> segment_resistance) const {
  factored_ = false;
  solver_.clear();
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    solver_.add_edge(segments_[s].a, segments_[s].b,
                     1.0 / segment_resistance[s]);
  }
  const double g_pad = 1.0 / params_.pad_resistance.value();
  for (const std::size_t p : pads_) solver_.add_diagonal(p, g_pad);
  solver_.factorize();
  factored_ = true;
  std::copy(segment_resistance.begin(), segment_resistance.end(),
            solver_segment_r_.begin());
  ++solve_stats_.factorizations;
}

PdnSolution PdnGrid::solve(std::span<const double> load_amps,
                           std::span<const double> segment_resistance) const {
  PdnSolution sol;
  solve(load_amps, segment_resistance, sol);
  return sol;
}

void PdnGrid::solve(std::span<const double> load_amps,
                    std::span<const double> segment_resistance,
                    PdnSolution& out) const {
  check_inputs(load_amps, segment_resistance);
  ++solve_stats_.solves;

  bool exact = factored_;
  bool refactor = !factored_;
  if (!refactor) {
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      const double drift =
          std::abs(segment_resistance[s] - solver_segment_r_[s]);
      if (drift > kRefactorTolerance * solver_segment_r_[s]) {
        refactor = true;
        break;
      }
      if (drift != 0.0) exact = false;
    }
  }
  if (refactor) {
    refactorize(segment_resistance);
    exact = true;
  }

  assemble_rhs(load_amps, rhs_);
  std::vector<double>& v = out.node_voltage;
  math::sparse::SpdSolveInfo info;
  if (exact) {
    solver_.solve(rhs_, v, &info);
  } else {
    // The factor describes slightly stale conductances; run CG against
    // the *true* operator (matrix-free) preconditioned by the stale
    // factor. Drift <= tolerance keeps the preconditioned system within
    // a few percent of the identity, so a handful of iterations recover
    // full accuracy — the sparse analogue of stale-LU refinement.
    const bool converged = solver_.solve_drifted(
        [&](std::span<const double> x, std::vector<double>& y) {
          apply_conductance(segment_resistance, x, y);
        },
        rhs_, v, &info);
    solve_stats_.refinement_iterations += info.cg_iterations;
    if (!converged) {
      // Drift within tolerance but CG stalled (e.g. resistance jump
      // exactly at the threshold): fall back to a fresh factorization.
      ++solve_stats_.fallback_refactorizations;
      refactorize(segment_resistance);
      solve_stats_.cg_iterations += info.cg_iterations;
      solver_.solve(rhs_, v, &info);
    }
  }
  solve_stats_.cg_iterations += info.cg_iterations;
  finish_solution(segment_resistance, out);
}

PdnSolution PdnGrid::solve_uncached(
    std::span<const double> load_amps,
    std::span<const double> segment_resistance) const {
  check_inputs(load_amps, segment_resistance);
  const math::Matrix g = assemble_conductance(segment_resistance);
  std::vector<double> rhs;
  assemble_rhs(load_amps, rhs);
  PdnSolution sol;
  sol.node_voltage = math::solve_dense(g, rhs);
  finish_solution(segment_resistance, sol);
  return sol;
}

AmpsPerM2 PdnGrid::current_density(double current_a) const {
  return AmpsPerM2{current_a / params_.segment_wire.cross_section_m2()};
}

void PdnGrid::save_cache(ckpt::Serializer& s) const {
  s.begin_section("PDNC");
  s.write_bool(factored_);
  if (factored_) {
    s.write_f64_vec(solver_segment_r_);
  }
  s.write_u64(solve_stats_.solves);
  s.write_u64(solve_stats_.factorizations);
  s.write_u64(solve_stats_.refinement_iterations);
  s.write_u64(solve_stats_.cg_iterations);
  s.write_u64(solve_stats_.fallback_refactorizations);
}

void PdnGrid::load_cache(ckpt::Deserializer& d) {
  d.expect_section("PDNC");
  if (d.read_bool()) {
    const std::vector<double> r = d.read_f64_vec();
    DH_REQUIRE(r.size() == segments_.size(),
               "PDN snapshot cached-factor resistances do not match this "
               "grid's segment count");
    refactorize(r);
  } else {
    factored_ = false;
  }
  solve_stats_.solves = static_cast<std::size_t>(d.read_u64());
  solve_stats_.factorizations = static_cast<std::size_t>(d.read_u64());
  solve_stats_.refinement_iterations =
      static_cast<std::size_t>(d.read_u64());
  solve_stats_.cg_iterations = static_cast<std::size_t>(d.read_u64());
  solve_stats_.fallback_refactorizations =
      static_cast<std::size_t>(d.read_u64());
}

}  // namespace dh::pdn
