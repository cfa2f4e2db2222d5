// Determinism and caching regressions for the parallel-execution layer:
// work mapped over the pool (EM wire TTFs, SRAM scans, whole
// SystemSimulator lifetimes) must be bit-identical at 1, 2, and 8
// threads, and the cached PDN solve must match a fresh dense solve across
// a full aging run. These carry the ctest label `parallel` so the tier-1
// line can run them under TSan (-DDH_SANITIZE=thread).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
#include "common/math/linalg.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"
#include "pdn/aging_pdn.hpp"
#include "pdn/pdn_grid.hpp"
#include "sched/policy.hpp"
#include "sched/system_sim.hpp"
#include "sram/sram_array.hpp"

namespace dh {
namespace {

// Scaled-down bench/em_population_ttf member: TTF of wire i with process
// spread drawn from the index-derived stream.
double em_ttf_member(std::size_t i, bool recovery) {
  using namespace dh::em;
  Rng r = Rng::stream(2026, i);
  EmMaterialParams m = paper_calibrated_em_material();
  m.d0_m2_per_s *= r.lognormal(0.0, 0.25);
  m.critical_stress =
      Pascals{m.critical_stress.value() * r.lognormal(0.0, 0.10)};
  CompactEm em{CompactEmParams{.wire = paper_wire(), .material = m}};
  const Celsius t = paper_em_conditions::chamber();
  double elapsed = 0.0;
  const double horizon = hours(400.0).value();
  while (!em.broken() && elapsed < horizon) {
    em.step(paper_em_conditions::stress_density(), t, minutes(60.0));
    elapsed += minutes(60.0).value();
    if (recovery && !em.broken()) {
      em.step(paper_em_conditions::reverse_density(), t, minutes(15.0));
      elapsed += minutes(15.0).value();
    }
  }
  return em.broken() ? elapsed : horizon;
}

class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { set_global_thread_count(0); }
};

TEST_F(ParallelDeterminism, EmPopulationBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kWires = 32;
  std::vector<std::vector<double>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_global_thread_count(threads);
    runs.push_back(parallel_map(
        kWires, [](std::size_t i) { return em_ttf_member(i, false); }));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
  // Sanity: the population is not degenerate (process spread worked).
  double lo = runs[0][0], hi = runs[0][0];
  for (const double x : runs[0]) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_LT(lo, hi);
}

TEST_F(ParallelDeterminism, SramScanBitIdenticalAcrossThreadCounts) {
  std::vector<sram::SramArrayHealth> scans;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_global_thread_count(threads);
    sram::SramArrayParams p;
    p.cells = 48;
    sram::SramArray array{p};
    // Age the array (stepping itself is pool-parallel too).
    for (int q = 0; q < 4; ++q) {
      array.step(Celsius{85.0}, hours(500.0), q % 2 == 0 ? 0.0 : 0.2);
    }
    scans.push_back(array.scan_health());
  }
  for (std::size_t i = 1; i < scans.size(); ++i) {
    EXPECT_EQ(scans[0].worst_snm.value(), scans[i].worst_snm.value());
    EXPECT_EQ(scans[0].mean_snm.value(), scans[i].mean_snm.value());
    EXPECT_EQ(scans[0].worst_pmos_dvth.value(),
              scans[i].worst_pmos_dvth.value());
  }
}

TEST_F(ParallelDeterminism, SystemSimulatorsBitIdenticalAcrossThreadCounts) {
  sched::SystemParams base;
  base.rows = base.cols = 2;
  base.quantum = hours(24.0);
  // A bursty (Markov) workload consumes the per-member random stream, so
  // different member seeds genuinely diverge.
  base.workload.kind = sched::WorkloadKind::kBursty;
  // Member i owns its simulator and derives its seed from (base seed, i)
  // alone, so the mapped lifetimes cannot depend on the thread count.
  const auto lifetime = [&base](std::size_t i) {
    sched::SystemParams p = base;
    p.seed = Rng::stream_seed(base.seed, i);
    sched::SystemSimulator sim{p, sched::make_periodic_active_policy()};
    sim.run(days(20.0));
    return sim.summary();
  };
  std::vector<std::vector<sched::SystemSummary>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_global_thread_count(threads);
    runs.push_back(parallel_map(6, lifetime));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[0].size(), runs[r].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[0][i].guardband_fraction,
                runs[r][i].guardband_fraction);
      EXPECT_EQ(runs[0][i].final_degradation, runs[r][i].final_degradation);
      EXPECT_EQ(runs[0][i].availability, runs[r][i].availability);
      EXPECT_EQ(runs[0][i].energy_joules, runs[r][i].energy_joules);
      EXPECT_EQ(runs[0][i].mean_temperature_c,
                runs[r][i].mean_temperature_c);
    }
  }
  // Members differ from each other (seeds actually varied).
  EXPECT_NE(runs[0][0].energy_joules, runs[0][1].energy_joules);
}

TEST(PdnSolveCache, MatchesUncachedAcrossAgingRun) {
  // Drive a PDN through an EM-flavoured aging trajectory: slow per-step
  // drift plus occasional jumps (void opening), with temperature swings.
  pdn::PdnParams p;
  p.rows = p.cols = 6;
  const pdn::PdnGrid grid{p};
  std::vector<double> loads(grid.node_count(), 0.0);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    loads[i] = 0.001 + 0.0005 * static_cast<double>(i % 7);
  }
  auto r = grid.fresh_segment_resistances(Celsius{85.0});
  Rng rng{5};
  for (int step = 0; step < 300; ++step) {
    for (std::size_t s = 0; s < r.size(); ++s) {
      r[s] *= 1.0 + 2e-4 * rng.uniform();  // slow EM drift
    }
    const bool jump = step % 97 == 50;
    if (jump) r[step % r.size()] *= 1.8;  // void jump
    const std::size_t factorizations_before =
        grid.solve_stats().factorizations;
    const auto cached = grid.solve(loads, r);
    // The first solve and each void jump (80% > the 5% refactor
    // tolerance) factorize exactly once; sub-5% drift reuses the factor.
    EXPECT_EQ(grid.solve_stats().factorizations - factorizations_before,
              step == 0 || jump ? 1u : 0u)
        << "step " << step;
    const auto fresh = grid.solve_uncached(loads, r);
    ASSERT_EQ(cached.node_voltage.size(), fresh.node_voltage.size());
    for (std::size_t i = 0; i < cached.node_voltage.size(); ++i) {
      EXPECT_NEAR(cached.node_voltage[i], fresh.node_voltage[i], 1e-10);
    }
    EXPECT_NEAR(cached.worst_drop_v, fresh.worst_drop_v, 1e-10);
  }
  // The cache must actually be a cache: the first factorization plus one
  // per void jump (steps 50, 147, 244).
  const auto& st = grid.solve_stats();
  EXPECT_EQ(st.solves, 300u);
  EXPECT_EQ(st.factorizations, 4u);
  // Every drift solve of this run converged: none fell back.
  EXPECT_EQ(st.fallback_refactorizations, 0u);
}

TEST(PdnSolveCache, CountsStalledDriftSolveThatRefactorizes) {
  // Every segment at a corner pad is broken (CompactEm's 1e9-ohm open
  // wire) and each node draws 2 A, so the mesh floats ~3e9 V below VDD:
  // the aged regime of the Fig. 12 chip. A sub-5% drift keeps the cached
  // factor, but the drift CG stalls at its rounding floor, so the solve
  // refactorizes and must be counted as a fallback.
  pdn::PdnParams p;
  p.rows = p.cols = 4;
  const pdn::PdnGrid grid{p};
  const std::vector<double> loads(grid.node_count(), 2.0);
  std::vector<double> r(grid.segment_count(), 56.0);
  for (std::size_t s = 0; s < r.size(); ++s) {
    for (const std::size_t pad : grid.pads()) {
      if (grid.segment(s).a == pad || grid.segment(s).b == pad) r[s] = 1e9;
    }
  }
  (void)grid.solve(loads, r);
  EXPECT_EQ(grid.solve_stats().fallback_refactorizations, 0u);

  for (std::size_t s = 1; s < r.size(); s += 2) {
    if (r[s] < 1e8) r[s] *= 1.003;
  }
  const auto cached = grid.solve(loads, r);
  const auto& st = grid.solve_stats();
  EXPECT_GT(st.refinement_iterations, 0u);  // the drift CG ran first
  EXPECT_EQ(st.fallback_refactorizations, 1u);
  EXPECT_EQ(st.factorizations, 2u);
  const auto fresh = grid.solve_uncached(loads, r);
  for (std::size_t i = 0; i < cached.node_voltage.size(); ++i) {
    EXPECT_NEAR(cached.node_voltage[i], fresh.node_voltage[i],
                1e-8 * fresh.worst_drop_v);
  }

  // The count survives a checkpoint round trip with the other stats.
  ckpt::Serializer out;
  grid.save_cache(out);
  pdn::PdnGrid restored{p};
  ckpt::Deserializer in{out.take()};
  restored.load_cache(in);
  EXPECT_EQ(restored.solve_stats().fallback_refactorizations, 1u);
  EXPECT_EQ(restored.solve_stats().factorizations, 2u);
}

TEST(PdnSolveCache, FailedRefactorizationLeavesGridUsable) {
  // Ringing one non-pad node with 1e300-ohm segments leaves its pivot
  // (4e-300 S) below the n * eps * max-diagonal floor, so the
  // refactorization that drift forces throws. The factor was being
  // rebuilt in place when it threw, so the grid must refactorize on its
  // next solve rather than reuse it.
  pdn::PdnParams p;
  p.rows = p.cols = 4;
  const pdn::PdnGrid grid{p};
  const std::vector<double> loads(grid.node_count(), 0.01);
  const auto fresh_r = grid.fresh_segment_resistances(Celsius{85.0});
  (void)grid.solve(loads, fresh_r);
  ASSERT_EQ(grid.solve_stats().factorizations, 1u);

  const std::size_t ringed = grid.node_index(1, 1);
  auto ring_r = fresh_r;
  for (std::size_t s = 0; s < ring_r.size(); ++s) {
    if (grid.segment(s).a == ringed || grid.segment(s).b == ringed) {
      ring_r[s] = 1e300;
    }
  }
  EXPECT_THROW((void)grid.solve(loads, ring_r), Error);
  EXPECT_EQ(grid.solve_stats().factorizations, 1u);

  const auto cached = grid.solve(loads, fresh_r);
  EXPECT_EQ(grid.solve_stats().factorizations, 2u);
  const auto dense = grid.solve_uncached(loads, fresh_r);
  for (std::size_t i = 0; i < cached.node_voltage.size(); ++i) {
    EXPECT_NEAR(cached.node_voltage[i], dense.node_voltage[i], 1e-10);
  }
}

TEST(PdnSolveCache, AgingPdnUsesFarFewerFactorizationsThanSteps) {
  pdn::PdnParams p;
  p.rows = p.cols = 4;
  pdn::AgingPdn aging{p, em::paper_calibrated_em_material()};
  const std::vector<double> loads(aging.grid().node_count(), 0.02);
  for (int step = 0; step < 200; ++step) {
    aging.step(loads, Celsius{105.0}, hours(6.0), step % 8 == 7);
  }
  const auto& st = aging.grid().solve_stats();
  EXPECT_EQ(st.solves, 200u);
  EXPECT_LT(st.factorizations, st.solves / 4);
}

TEST(PdnGuards, RejectsInvalidPads) {
  pdn::PdnParams p;
  p.rows = p.cols = 4;
  p.pad_nodes = {999};  // out of range
  EXPECT_THROW(pdn::PdnGrid{p}, Error);
}

TEST(PdnGuards, SingularSystemRaisesDescriptiveError) {
  // A conductance matrix with no path to any pad is exactly singular;
  // the LU pivot check must say so instead of dividing by zero.
  math::Matrix g(3, 3, 0.0);
  g(0, 0) = 1.0;
  g(0, 1) = -1.0;
  g(1, 0) = -1.0;
  g(1, 1) = 1.0;
  g(2, 2) = 1.0;
  const std::vector<double> rhs{0.0, 1.0, 0.0};
  try {
    (void)math::solve_dense(g, rhs);
    FAIL() << "expected dh::Error for singular matrix";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("singular"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("pivot"), std::string::npos);
  }
}

}  // namespace
}  // namespace dh
