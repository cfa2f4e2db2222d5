// Google-benchmark microbenchmarks of the numerical kernels, so solver
// performance regressions are caught alongside the physics. End-to-end
// and per-layer costs on the paper workloads are measured by perfbench/.
#include <benchmark/benchmark.h>

#include <vector>

#include "circuit/assist.hpp"
#include "common/parallel.hpp"
#include "device/bti_model.hpp"
#include "device/calibration.hpp"
#include "device/compact_bti.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"
#include "em/korhonen.hpp"
#include "pdn/pdn_grid.hpp"
#include "sched/system_sim.hpp"
#include "thermal/thermal_grid.hpp"

namespace {

using namespace dh;

void BM_TrapEnsembleStep(benchmark::State& state) {
  auto model = device::BtiModel::paper_calibrated();
  const auto cond = device::paper_conditions::accelerated_stress();
  for (auto _ : state) {
    model.apply(cond, minutes(10.0));
    benchmark::DoNotOptimize(model.delta_vth());
  }
}
BENCHMARK(BM_TrapEnsembleStep);

void BM_CompactBtiStep(benchmark::State& state) {
  device::CompactBti model{};
  const auto cond = device::paper_conditions::accelerated_stress();
  for (auto _ : state) {
    model.apply(cond, minutes(10.0));
    benchmark::DoNotOptimize(model.delta_vth());
  }
}
BENCHMARK(BM_CompactBtiStep);

void BM_KorhonenStep(benchmark::State& state) {
  em::KorhonenSolver solver{em::paper_wire(),
                            em::paper_calibrated_em_material()};
  // Operating (not oven) temperature so the wire neither nucleates nor
  // breaks within the benchmark: every iteration does full solver work.
  for (auto _ : state) {
    solver.step(em::paper_em_conditions::stress_density(), Celsius{105.0},
                Seconds{30.0});
    benchmark::DoNotOptimize(solver.stress_at(em::WireEnd::kStart));
  }
}
BENCHMARK(BM_KorhonenStep);

void BM_CompactEmStep(benchmark::State& state) {
  em::CompactEm model{em::CompactEmParams{
      .wire = em::paper_wire(),
      .material = em::paper_calibrated_em_material()}};
  for (auto _ : state) {
    model.step(em::paper_em_conditions::stress_density(), Celsius{105.0},
               Seconds{30.0});
    benchmark::DoNotOptimize(model.end_stress());
  }
}
BENCHMARK(BM_CompactEmStep);

void BM_ThermalSteadySolve(benchmark::State& state) {
  thermal::ThermalGridParams p;
  p.rows = static_cast<std::size_t>(state.range(0));
  p.cols = p.rows;
  thermal::ThermalGrid grid{p};
  for (std::size_t i = 0; i < grid.tile_count(); ++i) {
    grid.set_power(i, Watts{1.0 + 0.01 * static_cast<double>(i)});
  }
  for (auto _ : state) {
    grid.solve_steady();
    benchmark::DoNotOptimize(grid.max_temperature());
  }
}
BENCHMARK(BM_ThermalSteadySolve)->Arg(4)->Arg(8)->Arg(16);

void BM_PdnIrSolve(benchmark::State& state) {
  pdn::PdnParams p;
  p.rows = static_cast<std::size_t>(state.range(0));
  p.cols = p.rows;
  const pdn::PdnGrid grid{p};
  const std::vector<double> loads(grid.node_count(), 0.002);
  const auto r = grid.fresh_segment_resistances(Celsius{85.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.solve_uncached(loads, r));
  }
}
BENCHMARK(BM_PdnIrSolve)->Arg(4)->Arg(8)->Arg(12);

// Dense-vs-sparse solve kernels at n in {64, 256, 1024, 4096} nodes
// (grid sides 8..64). Dense is the from-scratch LU reference
// (solve_uncached); sparse is a fresh engine solve — CSR assembly +
// factorization + solve — so the comparison is end-to-end, not
// back-substitution vs LU. The 64x64 dense case takes tens of seconds
// per iteration; filter with --benchmark_filter if that matters.
void BM_PdnDenseSolve(benchmark::State& state) {
  pdn::PdnParams p;
  p.rows = p.cols = static_cast<std::size_t>(state.range(0));
  const pdn::PdnGrid grid{p};
  const std::vector<double> loads(grid.node_count(), 0.002);
  const auto r = grid.fresh_segment_resistances(Celsius{85.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.solve_uncached(loads, r));
  }
  state.SetComplexityN(static_cast<std::int64_t>(grid.node_count()));
}
BENCHMARK(BM_PdnDenseSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_PdnSparseSolve(benchmark::State& state) {
  pdn::PdnParams p;
  p.rows = p.cols = static_cast<std::size_t>(state.range(0));
  const std::vector<double> loads(p.rows * p.cols, 0.002);
  for (auto _ : state) {
    state.PauseTiming();
    const pdn::PdnGrid grid{p};  // fresh cache: time factor + solve
    const auto r = grid.fresh_segment_resistances(Celsius{85.0});
    state.ResumeTiming();
    benchmark::DoNotOptimize(grid.solve(loads, r));
  }
  state.SetComplexityN(static_cast<std::int64_t>(p.rows * p.cols));
}
BENCHMARK(BM_PdnSparseSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Complexity();

// The cached solver on a slowly drifting grid (EM-like aging): most
// iterations are back-substitutions plus a few refinement sweeps.
void BM_PdnIrSolveCached(benchmark::State& state) {
  pdn::PdnParams p;
  p.rows = static_cast<std::size_t>(state.range(0));
  p.cols = p.rows;
  const pdn::PdnGrid grid{p};
  const std::vector<double> loads(grid.node_count(), 0.002);
  auto r = grid.fresh_segment_resistances(Celsius{85.0});
  for (auto _ : state) {
    for (double& x : r) x *= 1.0 + 1e-5;  // slow EM drift
    benchmark::DoNotOptimize(grid.solve(loads, r));
  }
}
BENCHMARK(BM_PdnIrSolveCached)->Arg(4)->Arg(8)->Arg(12);

void BM_ParallelForOverhead(benchmark::State& state) {
  std::vector<double> out(1024, 0.0);
  for (auto _ : state) {
    parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForOverhead);

void BM_AssistDcSolve(benchmark::State& state) {
  circuit::AssistCircuit assist{circuit::AssistCircuitParams{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assist.solve(circuit::AssistMode::kNormal));
  }
}
BENCHMARK(BM_AssistDcSolve);

void BM_SystemSimStep(benchmark::State& state) {
  sched::SystemParams p;
  p.rows = static_cast<std::size_t>(state.range(0));
  p.cols = p.rows;
  sched::SystemSimulator sim{p, sched::make_periodic_active_policy()};
  for (auto _ : state) {
    sim.step();
  }
}
BENCHMARK(BM_SystemSimStep)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
