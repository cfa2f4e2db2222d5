// Per-quantum steps that must not allocate once their buffers are sized:
// KorhonenSolver::step, AgingPdn::step, ThermalGrid::solve_steady,
// SramArray::step, LogicNetlist::age and SystemSimulator::step; and
// SystemSimulator::run, whose only allocations size its traces.
//
// This binary replaces the global operator new with a counting one, so it
// holds only these tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "em/em_sensor.hpp"
#include "em/korhonen.hpp"
#include "em/material.hpp"
#include "logic/logic_netlist.hpp"
#include "pdn/aging_pdn.hpp"
#include "sched/policy.hpp"
#include "sched/system_sim.hpp"
#include "sram/sram_array.hpp"
#include "thermal/thermal_grid.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Not inlined: GCC would otherwise see free() called on the result of
// operator new and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dh {
namespace {

/// Allocations made by `f`.
template <typename F>
std::size_t allocations_in(F&& f) {
  const std::size_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

TEST(AllocationFree, CountingOperatorNewSeesVectors) {
  EXPECT_GT(allocations_in([] { std::vector<double> v(8, 1.0); }), 0u);
}

TEST(AllocationFree, AgingPdnStep) {
  // Fig. 11's 8x8 mesh at 230 C, forward then reversed, on through
  // nucleation: both the exact and the drift-refined solve run.
  pdn::AgingPdn mesh{pdn::PdnParams{}, em::paper_calibrated_em_material()};
  const std::vector<double> loads(mesh.grid().node_count(), 0.003);
  mesh.step(loads, Celsius{230.0}, minutes(36.0), false);
  for (int k = 0; k < 40; ++k) {
    const bool reverse = k % 2 == 1;
    EXPECT_EQ(allocations_in([&] {
                mesh.step(loads, Celsius{230.0},
                          minutes(reverse ? 24.0 : 36.0), reverse);
              }),
              0u)
        << "step " << k;
  }
  EXPECT_GT(mesh.stats().nucleated_segments, 0u);
  EXPECT_GT(mesh.grid().solve_stats().refinement_iterations, 0u);
}

TEST(AllocationFree, KorhonenStep) {
  // From the first step on: stress, a cooler step, nucleation at the
  // cathode, growth, healing under reversed current and a short last
  // substep each rebuild the factor or the wind term in place.
  em::KorhonenSolver wire{em::paper_wire(),
                          em::paper_calibrated_em_material()};
  const auto j = em::paper_em_conditions::stress_density();
  const auto jr = em::paper_em_conditions::reverse_density();
  const auto t = em::paper_em_conditions::chamber();
  EXPECT_EQ(allocations_in([&] {
              wire.step(j, t, hours(1.0));
              wire.step(j, Celsius{200.0}, hours(1.0));
              for (int k = 0; k < 60 && !wire.ever_nucleated(); ++k) {
                wire.step(j, t, minutes(10.0));
              }
              wire.step(j, t, hours(2.0));
              for (int k = 0; k < 60 && wire.void_at(em::WireEnd::kStart).open;
                   ++k) {
                wire.step(jr, t, minutes(10.0));
              }
              wire.step(j, t, Seconds{1000.0});
            }),
            0u);
  EXPECT_TRUE(wire.ever_nucleated());
  EXPECT_FALSE(wire.void_at(em::WireEnd::kStart).open);
}

TEST(AllocationFree, ThermalSolveSteady) {
  thermal::ThermalGrid grid{thermal::ThermalGridParams{}};
  for (std::size_t i = 0; i < grid.tile_count(); ++i) {
    grid.set_power(i, Watts{1.0 + 0.1 * static_cast<double>(i)});
  }
  grid.solve_steady();
  EXPECT_EQ(allocations_in([&] { grid.solve_steady(); }), 0u);
}

TEST(AllocationFree, SramArrayStep) {
  for (const sram::DataPattern pattern :
       {sram::DataPattern::kStatic, sram::DataPattern::kFlipping}) {
    sram::SramArrayParams p;
    p.pattern = pattern;
    sram::SramArray arr{p};
    arr.step(Celsius{95.0}, hours(24.0), 0.1);
    for (const double boost_fraction : {0.0, 0.1, 1.0}) {
      EXPECT_EQ(allocations_in([&] {
                  arr.step(Celsius{95.0}, hours(24.0), boost_fraction);
                }),
                0u)
          << "boost " << boost_fraction;
    }
  }
}

TEST(AllocationFree, LogicNetlistAge) {
  // After its first call in a mode, age reuses its batch and its node
  // values: signal probabilities (kOperating) or the idle vector's
  // evaluation (kIdleVector).
  logic::LogicNetlist net = logic::make_c17_plus();
  const std::vector<bool> idle = net.best_idle_vector();
  net.age(logic::LogicMode::kOperating, Celsius{85.0}, hours(24.0));
  net.age(logic::LogicMode::kIdleVector, Celsius{85.0}, hours(24.0), idle);
  for (const logic::LogicMode mode :
       {logic::LogicMode::kOperating, logic::LogicMode::kIdleVector,
        logic::LogicMode::kActiveRecovery}) {
    EXPECT_EQ(allocations_in([&] {
                net.age(mode, Celsius{85.0}, hours(24.0), idle);
              }),
              0u)
        << "mode " << static_cast<int>(mode);
  }
  EXPECT_GT(net.worst_dvth().value(), 0.0);
}

std::unique_ptr<sched::RecoveryPolicy> policy(std::size_t k) {
  switch (k) {
    case 0:
      return sched::make_no_recovery_policy();
    case 1:
      return sched::make_passive_idle_policy();
    case 2:
      return sched::make_periodic_active_policy();
    case 3:
      return sched::make_adaptive_sensor_policy();
    default:
      return sched::make_dark_silicon_policy();
  }
}

/// Fewest free slots across the simulator's three traces.
std::size_t trace_room(const sched::SystemSimulator& sim) {
  std::size_t room = SIZE_MAX;
  for (const TimeSeries* ts :
       {&sim.degradation_trace(), &sim.ir_drop_trace(),
        &sim.temperature_trace()}) {
    for (const std::vector<double>* v : {&ts->raw_times(), &ts->raw_values()}) {
      room = std::min(room, v->capacity() - v->size());
    }
  }
  return room;
}

TEST(AllocationFree, SystemSimulatorStepUnderEveryPolicy) {
  constexpr std::size_t kSteps = 6;
  for (std::size_t k = 0; k < 5; ++k) {
    sched::SystemParams p;
    p.core.dynamic_power_peak = Watts{2.2};
    p.thermal.ambient = Celsius{55.0};
    sched::SystemSimulator sim{p, policy(k)};
    // The first quantum sizes every buffer; then step on until the traces
    // hold room for the steps measured below.
    sim.step();
    while (trace_room(sim) < kSteps) sim.step();
    for (std::size_t s = 0; s < kSteps; ++s) {
      EXPECT_EQ(allocations_in([&] { sim.step(); }), 0u)
          << sim.policy().name() << ", quantum " << s;
    }
  }
}

TEST(AllocationFree, SystemSimulatorRunOnlySizesItsTraces) {
  // After the first quantum, a run to any later target allocates only the
  // reserves of its three traces (times and values each), however many
  // quanta it steps; before, the traces grew by doubling along the way.
  constexpr std::size_t kTraceReserves = 6;
  for (std::size_t k = 0; k < 5; ++k) {
    for (const std::size_t quanta : {2u, 40u, 300u}) {
      sched::SystemParams p;
      p.core.dynamic_power_peak = Watts{2.2};
      p.thermal.ambient = Celsius{55.0};
      sched::SystemSimulator sim{p, policy(k)};
      sim.step();
      EXPECT_EQ(allocations_in([&] {
                  sim.run(Seconds{p.quantum.value() *
                                  static_cast<double>(quanta)});
                }),
                kTraceReserves)
          << sim.policy().name() << ", " << quanta << " quanta";
      EXPECT_EQ(sim.degradation_trace().size(), quanta);
    }
  }
}

}  // namespace
}  // namespace dh
