// Sparse-vs-dense agreement for the ported grid solvers.
//
// The sparse engine replaced dense LU inside PdnGrid and ThermalGrid; the
// dense paths survive as reference baselines (`solve_uncached`, explicit
// dense assembly here). These tests randomize grid shapes, pad sets, and
// drift histories and require the engine to agree to <= 1e-10.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/math/linalg.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "pdn/aging_pdn.hpp"
#include "pdn/pdn_grid.hpp"
#include "thermal/thermal_grid.hpp"

namespace dh {
namespace {

constexpr double kAgreementTol = 1e-10;

pdn::PdnParams random_pdn_params(Rng& rng) {
  pdn::PdnParams p;
  p.rows = static_cast<std::size_t>(rng.uniform_int(1, 12));
  p.cols = static_cast<std::size_t>(rng.uniform_int(2, 12));
  const std::size_t n = p.rows * p.cols;
  // Random pad set: 1..4 distinct nodes (empty keeps the corner default).
  const std::size_t pad_count = static_cast<std::size_t>(
      rng.uniform_int(1, 4));
  for (std::size_t i = 0; i < pad_count; ++i) {
    p.pad_nodes.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(n) - 1)));
  }
  std::sort(p.pad_nodes.begin(), p.pad_nodes.end());
  p.pad_nodes.erase(std::unique(p.pad_nodes.begin(), p.pad_nodes.end()),
                    p.pad_nodes.end());
  return p;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

TEST(SparseAgreement, RandomizedGridsMatchDenseReference) {
  // 12 random shapes x 3 load patterns each, through the cached sparse
  // path AND the uncached dense path. Agreement must hold on voltages and
  // segment currents.
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    Rng rng = Rng::stream(0x5AB5E, trial);
    const pdn::PdnParams params = random_pdn_params(rng);
    const pdn::PdnGrid grid{params};
    std::vector<double> seg_r =
        grid.fresh_segment_resistances(Celsius{55.0});
    for (int pattern = 0; pattern < 3; ++pattern) {
      std::vector<double> load(grid.node_count());
      for (auto& v : load) v = rng.uniform(0.0, 0.02);
      const auto sparse = grid.solve(load, seg_r);
      const auto dense = grid.solve_uncached(load, seg_r);
      ASSERT_EQ(sparse.node_voltage.size(), dense.node_voltage.size());
      EXPECT_LE(max_abs_diff(sparse.node_voltage, dense.node_voltage),
                kAgreementTol)
          << params.rows << "x" << params.cols << " trial " << trial;
      EXPECT_LE(max_abs_diff(sparse.segment_current, dense.segment_current),
                kAgreementTol);
      EXPECT_NEAR(sparse.worst_drop_v, dense.worst_drop_v, kAgreementTol);
    }
  }
}

TEST(SparseAgreement, DriftSequenceStaysWithinToleranceOfDense) {
  // Walk resistances upward (EM-style drift) through enough steps to
  // cross the refactor tolerance several times. Every intermediate
  // solve — exact, drift-refined, or freshly refactorized — must agree
  // with the dense reference.
  Rng rng{2027};
  pdn::PdnParams params;
  params.rows = 9;
  params.cols = 7;
  const pdn::PdnGrid grid{params};
  std::vector<double> seg_r = grid.fresh_segment_resistances(Celsius{45.0});
  std::vector<double> load(grid.node_count());
  for (auto& v : load) v = rng.uniform(0.0, 0.015);

  for (int step = 0; step < 60; ++step) {
    for (auto& r : seg_r) r *= 1.0 + rng.uniform(0.0, 0.01);
    const auto sparse = grid.solve(load, seg_r);
    const auto dense = grid.solve_uncached(load, seg_r);
    ASSERT_LE(max_abs_diff(sparse.node_voltage, dense.node_voltage),
              kAgreementTol)
        << "diverged at drift step " << step;
  }
  const auto& st = grid.solve_stats();
  EXPECT_GT(st.solves, 0u);
  // Drift refinement must have actually run (not refactorized each step).
  EXPECT_LT(st.factorizations, st.solves);
  EXPECT_GT(st.refinement_iterations, 0u);
  EXPECT_GE(st.cg_iterations, st.refinement_iterations);
}

TEST(SparseAgreement, LargeGridMatchesDense) {
  pdn::PdnParams params;
  params.rows = 32;
  params.cols = 32;  // n = 1024, bandwidth 32
  const pdn::PdnGrid grid{params};
  Rng rng{7};
  const auto seg_r = grid.fresh_segment_resistances(Celsius{85.0});
  std::vector<double> load(grid.node_count());
  for (auto& v : load) v = rng.uniform(0.0, 0.01);
  const auto sparse = grid.solve(load, seg_r);
  const auto dense = grid.solve_uncached(load, seg_r);
  EXPECT_LE(max_abs_diff(sparse.node_voltage, dense.node_voltage),
            kAgreementTol);
  EXPECT_EQ(grid.solve_stats().factorizations, 1u);
}

TEST(SparseAgreement, SingularPadlessGridRaisesDescriptiveError) {
  // A grid whose pad list resolves to nothing reachable is floating:
  // the conductance matrix is singular and the engine must say so.
  pdn::PdnParams params;
  params.rows = 4;
  params.cols = 4;
  params.pad_resistance = Ohms{1e30};  // effectively disconnected pads
  const pdn::PdnGrid grid{params};
  const auto seg_r = grid.fresh_segment_resistances(Celsius{25.0});
  std::vector<double> load(grid.node_count(), 1e-3);
  try {
    (void)grid.solve(load, seg_r);
    // A 1e30 pad may still factor in double precision; if it does the
    // result must at least be finite.
    const auto sol = grid.solve_uncached(load, seg_r);
    for (const double v : sol.node_voltage) EXPECT_TRUE(std::isfinite(v));
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.find("singular") != std::string::npos ||
                what.find("pivot") != std::string::npos)
        << what;
  }
}

TEST(SparseAgreement, ThermalSteadyMatchesDenseAssembly) {
  thermal::ThermalGridParams params;
  params.rows = 10;
  params.cols = 9;
  thermal::ThermalGrid grid{params};
  Rng rng{99};
  std::vector<double> watts(grid.tile_count());
  for (auto& v : watts) v = rng.uniform(0.0, 2.5);
  grid.set_power_map(watts);
  grid.solve_steady();

  // Dense reference assembled from the same stencil definition.
  const std::size_t n = grid.tile_count();
  math::Matrix g(n, n, 0.0);
  // Silicon's 120 W/(m K) through the 0.5 mm die.
  const double g_lat = 120.0 * 0.5e-3;
  for (std::size_t r = 0; r < params.rows; ++r) {
    for (std::size_t c = 0; c < params.cols; ++c) {
      const std::size_t i = r * params.cols + c;
      g(i, i) += params.vertical_g_w_per_k;
      for (const std::size_t j :
           {r + 1 < params.rows ? i + params.cols : i,
            c + 1 < params.cols ? i + 1 : i}) {
        if (j == i) continue;
        g(i, i) += g_lat;
        g(j, j) += g_lat;
        g(i, j) -= g_lat;
        g(j, i) -= g_lat;
      }
    }
  }
  const auto rise_ref = math::solve_dense(g, watts);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(grid.temperature(i).value(),
                params.ambient.value() + rise_ref[i], kAgreementTol);
  }
}

TEST(SparseAgreement, ParallelPopulationSweepIsDeterministic) {
  // Per-instance solver state under the thread pool: each task owns its
  // grid (PdnGrid::solve is non-reentrant per instance), seeded from the
  // task index. Exercises the engine under TSan and checks determinism
  // against a serial replay.
  constexpr std::size_t kPopulation = 24;
  const auto worst_drop = [](std::size_t i) {
    Rng rng = Rng::stream(0xD21F7, i);
    pdn::PdnParams params;
    params.rows = 6 + i % 5;
    params.cols = 5 + i % 7;
    const pdn::PdnGrid grid{params};
    auto seg_r = grid.fresh_segment_resistances(Celsius{50.0});
    std::vector<double> load(grid.node_count());
    for (auto& v : load) v = rng.uniform(0.0, 0.02);
    double worst = 0.0;
    for (int step = 0; step < 8; ++step) {
      for (auto& r : seg_r) r *= 1.0 + rng.uniform(0.0, 0.02);
      worst = std::max(worst, grid.solve(load, seg_r).worst_drop_v);
    }
    return worst;
  };
  const std::vector<double> parallel = parallel_map(kPopulation, worst_drop);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    EXPECT_EQ(parallel[i], worst_drop(i)) << "instance " << i;
  }
}

TEST(SparseAgreement, ParallelThermalSweepSharesNothing) {
  constexpr std::size_t kPopulation = 16;
  const auto peak = [](std::size_t i) {
    thermal::ThermalGridParams params;
    params.rows = 4 + i % 4;
    params.cols = 4 + i % 3;
    thermal::ThermalGrid grid{params};
    Rng stream = Rng::stream(0x7E4A, i);
    std::vector<double> watts(grid.tile_count());
    double peak_c = 0.0;
    for (int s = 0; s < 6; ++s) {
      for (auto& v : watts) v = stream.uniform(0.0, 1.5);
      grid.set_power_map(watts);
      grid.solve_steady();
      peak_c = std::max(peak_c, grid.max_temperature().value());
    }
    return peak_c;
  };
  const auto parallel = parallel_map(kPopulation, peak);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    EXPECT_EQ(parallel[i], peak(i)) << "instance " << i;
  }
}

TEST(SparseAgreement, AgingPdnReportsSolverCounters) {
  pdn::PdnParams params;
  params.rows = 6;
  params.cols = 6;
  pdn::AgingPdn aging{params, em::EmMaterialParams{}};
  std::vector<double> load(aging.grid().node_count(), 5e-3);
  for (int i = 0; i < 5; ++i) {
    aging.step(load, Celsius{95.0}, Seconds{3600.0});
  }
  const auto st = aging.stats();
  EXPECT_GE(st.solver_factorizations, 1u);
  EXPECT_EQ(st.solver_factorizations, aging.grid().solve_stats().factorizations);
  EXPECT_EQ(st.solver_cg_iterations, aging.grid().solve_stats().cg_iterations);
}

}  // namespace
}  // namespace dh
