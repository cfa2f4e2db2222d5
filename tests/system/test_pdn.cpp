#include "pdn/pdn_grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace dh::pdn {
namespace {

PdnGrid make_grid(std::size_t rows = 4, std::size_t cols = 4) {
  PdnParams p;
  p.rows = rows;
  p.cols = cols;
  return PdnGrid{p};
}

TEST(Pdn, NoLoadMeansNoDrop) {
  const PdnGrid g = make_grid();
  const std::vector<double> loads(g.node_count(), 0.0);
  const auto r = g.fresh_segment_resistances(Celsius{85.0});
  const PdnSolution sol = g.solve(loads, r);
  EXPECT_NEAR(sol.worst_drop_v, 0.0, 1e-9);
  for (const double v : sol.node_voltage) {
    EXPECT_NEAR(v, g.params().vdd.value(), 1e-9);
  }
}

TEST(Pdn, CenterLoadDropsCenterMost) {
  PdnGrid g = make_grid(5, 5);
  std::vector<double> loads(g.node_count(), 0.0);
  loads[g.node_index(2, 2)] = 0.05;
  const auto r = g.fresh_segment_resistances(Celsius{85.0});
  const PdnSolution sol = g.solve(loads, r);
  EXPECT_EQ(sol.worst_node, g.node_index(2, 2));
  EXPECT_GT(sol.worst_drop_v, 0.0);
}

TEST(Pdn, CurrentConservation) {
  // Sum of pad injections equals total load current.
  PdnGrid g = make_grid();
  std::vector<double> loads(g.node_count(), 0.0);
  loads[g.node_index(1, 1)] = 0.02;
  loads[g.node_index(2, 3)] = 0.03;
  const auto r = g.fresh_segment_resistances(Celsius{85.0});
  const PdnSolution sol = g.solve(loads, r);
  double pad_current = 0.0;
  for (const std::size_t p : g.pads()) {
    pad_current += (g.params().vdd.value() - sol.node_voltage[p]) /
                   g.params().pad_resistance.value();
  }
  EXPECT_NEAR(pad_current, 0.05, 1e-9);
}

TEST(Pdn, SymmetricLoadSymmetricSolution) {
  PdnGrid g = make_grid(4, 4);
  std::vector<double> loads(g.node_count(), 0.01);
  const auto r = g.fresh_segment_resistances(Celsius{85.0});
  const PdnSolution sol = g.solve(loads, r);
  // Four-fold symmetry of the uniform problem.
  EXPECT_NEAR(sol.node_voltage[g.node_index(0, 0)],
              sol.node_voltage[g.node_index(3, 3)], 1e-9);
  EXPECT_NEAR(sol.node_voltage[g.node_index(0, 3)],
              sol.node_voltage[g.node_index(3, 0)], 1e-9);
}

TEST(Pdn, AgedSegmentIncreasesDrop) {
  PdnGrid g = make_grid();
  std::vector<double> loads(g.node_count(), 0.01);
  auto r = g.fresh_segment_resistances(Celsius{85.0});
  const double drop_fresh = g.solve(loads, r).worst_drop_v;
  for (auto& x : r) x *= 3.0;  // EM-aged grid
  const double drop_aged = g.solve(loads, r).worst_drop_v;
  EXPECT_GT(drop_aged, 2.0 * drop_fresh);
}

TEST(Pdn, SegmentCurrentsSatisfyNodeKcl) {
  PdnGrid g = make_grid(3, 3);
  std::vector<double> loads(g.node_count(), 0.0);
  loads[g.node_index(1, 1)] = 0.03;
  const auto r = g.fresh_segment_resistances(Celsius{85.0});
  const PdnSolution sol = g.solve(loads, r);
  // At the loaded (non-pad) node the segment currents must sum to the
  // load.
  double in = 0.0;
  for (std::size_t s = 0; s < g.segment_count(); ++s) {
    const auto& seg = g.segment(s);
    if (seg.b == g.node_index(1, 1)) in += sol.segment_current[s];
    if (seg.a == g.node_index(1, 1)) in -= sol.segment_current[s];
  }
  EXPECT_NEAR(in, 0.03, 1e-9);
}

TEST(Pdn, CurrentDensityConversion) {
  const PdnGrid g = make_grid();
  const double area = g.params().segment_wire.cross_section_m2();
  EXPECT_NEAR(g.current_density(1e-3).value(), 1e-3 / area, 1e-3);
}

TEST(Pdn, SegmentCountForMesh) {
  const PdnGrid g = make_grid(3, 4);
  // Horizontal: 3 rows x 3, vertical: 2 x 4.
  EXPECT_EQ(g.segment_count(), 3u * 3u + 2u * 4u);
}

TEST(Pdn, Validation) {
  PdnParams p;
  p.rows = 1;
  EXPECT_THROW(PdnGrid{p}, Error);
  p = PdnParams{};
  p.pad_nodes = {999};
  EXPECT_THROW(PdnGrid{p}, Error);
  const PdnGrid g = make_grid();
  EXPECT_THROW(g.solve(std::vector<double>{1.0},
                       g.fresh_segment_resistances(Celsius{85.0})),
               Error);
}

TEST(Pdn, RejectsNonFiniteLoads) {
  // A NaN load would spread through the substitution and report zero IR
  // drop (NaN never compares above the worst drop); +inf would report
  // inf from the cached solver but 0 from the dense reference.
  const PdnGrid g = make_grid();
  const auto r = g.fresh_segment_resistances(Celsius{85.0});
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    std::vector<double> load(g.node_count(), 0.01);
    load[5] = bad;
    EXPECT_THROW((void)g.solve(load, r), Error) << bad;
    EXPECT_THROW((void)g.solve_uncached(load, r), Error) << bad;
  }
  EXPECT_EQ(g.solve_stats().solves, 0u);
}

}  // namespace
}  // namespace dh::pdn
