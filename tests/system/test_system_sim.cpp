#include "sched/system_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace dh::sched {
namespace {

SystemParams small_system() {
  SystemParams p;
  p.rows = 2;
  p.cols = 2;
  p.quantum = hours(6.0);
  p.workload.kind = WorkloadKind::kPeriodic;
  p.workload.utilization = 0.9;
  p.workload.duty = 0.7;
  p.workload.period = hours(24.0);
  return p;
}

TEST(SystemSim, SimulatedTimeHasNoFloatingPointDrift) {
  // now() is derived from the integer step count, not accumulated by
  // repeated `now += dt` — a multi-year run must land exactly on
  // steps * quantum (repeated addition drifts by hundreds of ulps).
  SystemParams p = small_system();
  p.quantum = Seconds{0.1};  // 0.1 is not exactly representable
  SystemSimulator sim{p, make_no_recovery_policy()};
  const int steps = 1000;
  for (int i = 0; i < steps; ++i) sim.step();
  EXPECT_DOUBLE_EQ(sim.now().value(),
                   static_cast<double>(steps) * p.quantum.value());
}

TEST(SystemSim, RunExecutesExactStepCount) {
  // 30 days at 6 h quanta is exactly 120 steps; fp noise in the
  // accumulated clock must not add or drop a step.
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(30.0));
  EXPECT_DOUBLE_EQ(in_hours(sim.now()), 30.0 * 24.0);
  // run() targets are absolute, so continuing composes exactly.
  sim.run(days(45.0));
  EXPECT_DOUBLE_EQ(in_hours(sim.now()), 45.0 * 24.0);
  // A lifetime that is not a multiple of the quantum rounds up (the
  // simulator finishes the quantum in flight).
  sim.run(days(45.0) + hours(1.0));
  EXPECT_DOUBLE_EQ(in_hours(sim.now()), 45.0 * 24.0 + 6.0);
}

TEST(SystemSim, RunsAndRecordsTraces) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(30.0));
  EXPECT_GE(in_hours(sim.now()), 30.0 * 24.0);
  EXPECT_GT(sim.degradation_trace().size(), 100u);
  EXPECT_GT(sim.temperature_trace().size(), 100u);
  EXPECT_GT(sim.ir_drop_trace().size(), 100u);
}

TEST(SystemSim, DegradationAccumulatesWithoutRecovery) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(90.0));
  const auto s = sim.summary();
  EXPECT_GT(s.guardband_fraction, 0.0);
  EXPECT_GT(s.final_degradation, 0.0);
}

TEST(SystemSim, ActiveRecoveryShrinksGuardband) {
  // The headline system-level claim (Fig. 12b): scheduled active recovery
  // needs a smaller margin than worst-case no-recovery design.
  SystemSimulator baseline{small_system(), make_no_recovery_policy()};
  SystemSimulator healed{small_system(), make_periodic_active_policy()};
  baseline.run(days(180.0));
  healed.run(days(180.0));
  EXPECT_LT(healed.summary().final_degradation,
            baseline.summary().final_degradation);
}

TEST(SystemSim, AvailabilityWithinBounds) {
  SystemSimulator sim{small_system(), make_periodic_active_policy()};
  sim.run(days(30.0));
  const auto s = sim.summary();
  EXPECT_GE(s.availability, 0.0);
  EXPECT_LE(s.availability, 1.0 + 1e-9);
  EXPECT_GE(s.mean_throughput, 0.0);
}

TEST(SystemSim, NoRecoveryHasFullAvailability) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(20.0));
  // Every demanded cycle is served (at degraded speed, but served).
  EXPECT_GT(sim.summary().availability, 0.95);
}

TEST(SystemSim, DeterministicForSameSeed) {
  SystemSimulator a{small_system(), make_periodic_active_policy()};
  SystemSimulator b{small_system(), make_periodic_active_policy()};
  a.run(days(20.0));
  b.run(days(20.0));
  EXPECT_DOUBLE_EQ(a.summary().final_degradation,
                   b.summary().final_degradation);
  EXPECT_DOUBLE_EQ(a.summary().energy_joules, b.summary().energy_joules);
}

TEST(SystemSim, SeedChangesStochasticDetails) {
  SystemParams p = small_system();
  p.workload.kind = WorkloadKind::kBursty;
  SystemParams p2 = p;
  p2.seed = 777;
  SystemSimulator a{p, make_passive_idle_policy()};
  SystemSimulator b{p2, make_passive_idle_policy()};
  a.run(days(20.0));
  b.run(days(20.0));
  EXPECT_NE(a.summary().energy_joules, b.summary().energy_joules);
}

TEST(SystemSim, TemperatureAboveAmbient) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(10.0));
  EXPECT_GT(sim.summary().mean_temperature_c,
            small_system().thermal.ambient.value());
}

TEST(SystemSim, EnergyAccumulates) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(10.0));
  const double e10 = sim.summary().energy_joules;
  sim.run(days(20.0));
  EXPECT_GT(sim.summary().energy_joules, e10);
}

TEST(SystemSim, CoreAccessors) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  EXPECT_EQ(sim.core_count(), 4u);
  EXPECT_NO_THROW((void)sim.core(3));
  EXPECT_THROW((void)sim.core(4), dh::Error);
}

TEST(SystemSim, RequiresPolicy) {
  EXPECT_THROW(SystemSimulator(small_system(), nullptr), dh::Error);
}

TEST(SystemSim, RejectsNonPhysicalQuantumAndSensorNoise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Seconds q : {Seconds{0.0}, -hours(1.0), Seconds{nan}}) {
    SystemParams p = small_system();
    p.quantum = q;
    EXPECT_THROW(SystemSimulator(p, make_no_recovery_policy()), dh::Error)
        << "quantum " << q.value() << " s";
  }
  for (const Volts sigma : {Volts{-0.01}, Volts{nan}}) {
    SystemParams p = small_system();
    p.sensor_noise = sigma;
    EXPECT_THROW(SystemSimulator(p, make_no_recovery_policy()), dh::Error)
        << "sensor noise " << sigma.value() << " V";
  }
}

TEST(SystemSim, RejectsNonFiniteOrNonPositiveLifetime) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Seconds lifetime :
       {Seconds{0.0}, -days(1.0), Seconds{nan}, Seconds{inf}}) {
    SystemSimulator sim{small_system(), make_no_recovery_policy()};
    EXPECT_THROW(sim.run(lifetime), dh::Error)
        << "lifetime " << lifetime.value() << " s";
    EXPECT_EQ(sim.now().value(), 0.0);
  }
}

/// Adaptive-sensor run on a 2x2 chip at seed 5 for 30 days with the given
/// per-reading sensor noise.
SystemSimulator run_adaptive(Volts sensor_noise) {
  SystemParams p;
  p.rows = p.cols = 2;
  p.seed = 5;
  p.sensor_noise = sensor_noise;
  SystemSimulator sim{p, make_adaptive_sensor_policy(
                             {.threshold = Volts{0.004},
                              .release = Volts{0.002},
                              .em_recovery_duty = 0.2})};
  sim.run(days(30.0));
  return sim;
}

TEST(SystemSim, NoisySensorsHoldLastGoodReading) {
  // At 0.3 V sigma a good share of readings land beyond the 0.5 V sanity
  // limit; each is replaced by the core's last good reading, and the run
  // stays finite.
  const SystemSimulator noisy = run_adaptive(Volts{0.3});
  EXPECT_GT(noisy.sensor_rejections(), 0u);
  const SystemSummary s = noisy.summary();
  EXPECT_TRUE(std::isfinite(s.guardband_fraction));
  EXPECT_TRUE(std::isfinite(s.availability));
  EXPECT_TRUE(std::isfinite(s.energy_joules));
  EXPECT_GE(s.guardband_fraction, 0.0);
}

TEST(SystemSim, DefaultSensorNoiseRejectsNoReading) {
  // The default 0.5 mV noise never comes near the 0.5 V sanity limit.
  EXPECT_EQ(run_adaptive(SystemParams{}.sensor_noise).sensor_rejections(),
            0u);
}

}  // namespace
}  // namespace dh::sched
