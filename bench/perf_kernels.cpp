// Google-benchmark microbenchmarks of the numerical kernels, so solver
// performance regressions are caught alongside the physics. End-to-end
// and per-layer costs on the paper workloads are measured by perfbench/.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "circuit/assist.hpp"
#include "common/math/interp.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "device/bti_model.hpp"
#include "device/calibration.hpp"
#include "device/compact_bti.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"
#include "em/korhonen.hpp"
#include "logic/logic_netlist.hpp"
#include "pdn/aging_pdn.hpp"
#include "pdn/pdn_grid.hpp"
#include "sched/core_model.hpp"
#include "sched/system_sim.hpp"
#include "sram/sram_array.hpp"
#include "sram/sram_cell.hpp"
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

// One quantum of Fig. 12's chip (bench/fig12_system_schedule.cpp): 6 h,
// every fourth core in BTI active recovery as under its periodic policy,
// the others running load between 0.45 and 0.95, each at its own tile
// temperature. BM_CoreStepEach steps the cores one after another
// (Core::step, as perfbench's traced replay does); BM_CoreStepAll steps
// them in lockstep (Core::step_all, as SystemSimulator::step does).
// With `spread`, every core runs and the utilizations are spread over
// (0, 1], as across Fig. 12's load kinds, so the stressed chains retire at
// as many different step counts as there are cores.
struct Fig12Quantum {
  explicit Fig12Quantum(std::size_t n, bool spread = false)
      : cores(n, sched::Core{chip_core()}), actions(n), util(n), temps(n) {
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i) / static_cast<double>(n);
      const bool recovering = !spread && i % 4 == 3;
      actions[i] = recovering ? sched::CoreAction::kBtiActiveRecovery
                              : sched::CoreAction::kRun;
      if (spread) {
        util[i] = static_cast<double>(i + 1) / static_cast<double>(n);
      } else {
        util[i] = recovering ? 0.0 : 0.45 + 0.5 * x;
      }
      temps[i] = Celsius{75.0 + 20.0 * x};
    }
  }
  static sched::CoreParams chip_core() {
    sched::CoreParams p;
    p.dynamic_power_peak = Watts{2.2};
    return p;
  }
  std::vector<sched::Core> cores;
  std::vector<sched::CoreAction> actions;
  std::vector<double> util;
  std::vector<Celsius> temps;
  Seconds dt = hours(6.0);
};

void BM_CoreStepEach(benchmark::State& state) {
  Fig12Quantum q{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    for (std::size_t i = 0; i < q.cores.size(); ++i) {
      q.cores[i].step(q.actions[i], q.util[i], q.temps[i], q.dt);
    }
    benchmark::DoNotOptimize(q.cores.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CoreStepEach)->Arg(16);

void BM_CoreStepAll(benchmark::State& state, bool spread) {
  Fig12Quantum q{static_cast<std::size_t>(state.range(0)), spread};
  for (auto _ : state) {
    sched::Core::step_all(q.cores, q.actions, q.util, q.temps, q.dt);
    benchmark::DoNotOptimize(q.cores.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_CoreStepAll, fig12, false)->Arg(16);
BENCHMARK_CAPTURE(BM_CoreStepAll, spread, true)->Arg(16);

// One day of bench/sram_recovery_boost.cpp's array: static data, 95 C,
// a 24 h hold step. BM_SramCellStepEach steps the cells one after another
// (SramCell::step, the bits drawn as the array draws them);
// BM_SramArrayStep steps them in lockstep (SramArray::step).
constexpr Celsius kSramRetention{95.0};

void BM_SramCellStepEach(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<sram::SramCell> cells(n);
  Rng rng{sram::SramArrayParams{}.seed};
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = rng.bernoulli(0.5);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      cells[i].step(sram::CellMode::kHold, bits[i], kSramRetention,
                    hours(24.0));
    }
    benchmark::DoNotOptimize(cells.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SramCellStepEach)->Arg(64);

void BM_SramArrayStep(benchmark::State& state) {
  sram::SramArrayParams p;
  p.cells = static_cast<std::size_t>(state.range(0));
  sram::SramArray arr{p};
  for (auto _ : state) {
    arr.step(kSramRetention, hours(24.0));
    benchmark::DoNotOptimize(&arr);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SramArrayStep)->Arg(64);

// One day of bench/logic_aging_sta.cpp's clock-gated strategy: a 24 h
// kOperating quantum of make_c17_plus() at 85 C, every gate's two devices
// stressed for their signal-probability share, then resting, in one batch.
void BM_LogicAge(benchmark::State& state) {
  logic::LogicNetlist net = logic::make_c17_plus();
  for (auto _ : state) {
    net.age(logic::LogicMode::kOperating, Celsius{85.0}, hours(24.0));
    benchmark::DoNotOptimize(&net);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LogicAge);

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

void BM_KorhonenStepAc(benchmark::State& state) {
  em::KorhonenSolver solver{em::paper_wire(),
                            em::paper_calibrated_em_material()};
  // The current reverses every 30 s step: the matrix factor is reused and
  // only the wind term is recomputed.
  const double j = em::paper_em_conditions::stress_density().value();
  double sign = 1.0;
  for (auto _ : state) {
    solver.step(AmpsPerM2{sign * j}, Celsius{105.0}, Seconds{30.0});
    sign = -sign;
    benchmark::DoNotOptimize(solver.stress_at(em::WireEnd::kStart));
  }
}
BENCHMARK(BM_KorhonenStepAc);

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

// One step of Fig. 11's 8x8 local mesh at 230 C under its uniform 3 mA
// node loads, in Fig. 11's protected protocol (36 min forward, then 24 min
// in EM recovery mode): the cached IR solve plus the compact EM of every
// mortal segment, all sharing one factor set. The mesh restarts fresh
// every 192 h of simulated time, so the iterations sample nucleation,
// growth, healing and breakage as one run does.
void BM_AgingPdnStep(benchmark::State& state) {
  const pdn::PdnParams p;  // the default 8x8 mesh
  const std::vector<double> loads(p.rows * p.cols, 0.003);
  constexpr std::size_t kRunSteps = 384;
  std::optional<pdn::AgingPdn> mesh;
  std::size_t step = 0;
  for (auto _ : state) {
    if (step % kRunSteps == 0) {
      state.PauseTiming();
      mesh.emplace(p, em::paper_calibrated_em_material());
      state.ResumeTiming();
    }
    const bool reverse = step % 2 == 1;
    mesh->step(loads, Celsius{230.0}, minutes(reverse ? 24.0 : 36.0),
               reverse);
    ++step;
    benchmark::DoNotOptimize(mesh->last_solution().worst_drop_v);
  }
}
BENCHMARK(BM_AgingPdnStep);

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
// (solve_uncached); sparse is a fresh engine solve — band stamping +
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
  circuit::AssistCircuit assist;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assist.solve(circuit::AssistMode::kNormal));
  }
}
BENCHMARK(BM_AssistDcSolve);

void BM_InverterVtc(benchmark::State& state) {
  // cell_snm's grid: 41 points across the SRAM's 0.9 V supply. One VTC is
  // half the MNA work behind a hold SNM.
  const std::vector<double> vin = math::linspace(0.0, 0.9, 41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sram::inverter_vtc(Volts{0.0}, Volts{0.0}, vin));
  }
}
BENCHMARK(BM_InverterVtc);

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
