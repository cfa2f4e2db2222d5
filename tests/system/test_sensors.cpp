#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "em/em_sensor.hpp"
#include "sensors/em_canary.hpp"
#include "sensors/health_monitor.hpp"
#include "sensors/ro_pair_sensor.hpp"

namespace dh::sensors {
namespace {

// ---- RO-pair BTI sensor ---------------------------------------------------

RoPairSensor make_ro_pair(std::uint64_t seed = 3) {
  return RoPairSensor{Rng{seed}};
}

TEST(RoPairSensor, FreshReadsNearZero) {
  RoPairSensor s = make_ro_pair();
  EXPECT_LT(s.measure().value(), 0.003);
}

TEST(RoPairSensor, TracksTrueShift) {
  RoPairSensor s = make_ro_pair();
  for (int d = 0; d < 60; ++d) {
    s.step(0.9, Volts{1.1}, Celsius{95.0}, hours(24.0));
  }
  const double truth = s.true_dvth().value();
  ASSERT_GT(truth, 0.005);
  EXPECT_NEAR(s.measure().value(), truth, 0.3 * truth);
}

TEST(RoPairSensor, ReferenceStaysFresh) {
  RoPairSensor s = make_ro_pair();
  for (int d = 0; d < 60; ++d) {
    s.step(1.0, Volts{1.1}, Celsius{95.0}, hours(24.0));
  }
  // True differential ~ stressed shift: the healed reference contributes
  // almost nothing.
  EXPECT_GT(s.true_dvth().value(), 0.0);
}

TEST(RoPairSensor, MoreDutyMoreReading) {
  RoPairSensor light = make_ro_pair(5);
  RoPairSensor heavy = make_ro_pair(5);
  for (int d = 0; d < 60; ++d) {
    light.step(0.2, Volts{1.1}, Celsius{95.0}, hours(24.0));
    heavy.step(1.0, Volts{1.1}, Celsius{95.0}, hours(24.0));
  }
  EXPECT_GT(heavy.measure().value(), light.measure().value());
}

TEST(RoPairSensor, RejectsBadDuty) {
  RoPairSensor s = make_ro_pair();
  EXPECT_THROW(s.step(1.5, Volts{1.1}, Celsius{95.0}, hours(1.0)), Error);
}

TEST(RoPairSensor, RejectedStepChangesNothing) {
  // Each half of 1e12 s passes the stressed RO's checks but the whole
  // quantum fails the reference RO's: the stressed RO used to move first.
  RoPairSensor s = make_ro_pair();
  s.step(0.5, Volts{1.1}, Celsius{85.0}, hours(1.0));
  const double before = s.true_dvth().value();
  ASSERT_GT(before, 0.0);
  EXPECT_THROW(s.step(0.5, Volts{1.1}, Celsius{85.0}, Seconds{1e12}), Error);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.true_dvth().value()),
            std::bit_cast<std::uint64_t>(before));
}

// ---- EM canary bank -------------------------------------------------------

EmCanaryBank make_canaries() {
  EmCanaryParams p;
  p.mission_wire = em::paper_wire();
  p.material = em::paper_calibrated_em_material();
  return EmCanaryBank{p};
}

TEST(EmCanary, FreshBankIsQuiet) {
  EmCanaryBank bank = make_canaries();
  EXPECT_EQ(bank.tripped(), 0u);
  EXPECT_LT(bank.estimated_life_consumed(), 0.2);
}

TEST(EmCanary, NarrowestTripsFirst) {
  EmCanaryBank bank = make_canaries();
  const auto j = em::paper_em_conditions::stress_density();
  const auto t = em::paper_em_conditions::chamber();
  // The narrowest canary (0.5x width -> 2x density) nucleates ~4x sooner
  // than the mission wire (~350 min): step until exactly one trips.
  while (bank.tripped() == 0) {
    bank.step(j, t, minutes(10.0));
  }
  EXPECT_EQ(bank.tripped(), 1u);
  EXPECT_TRUE(bank.canary(0).void_open());
  EXPECT_FALSE(bank.canary(2).void_open());
}

TEST(EmCanary, TripsInWidthOrder) {
  EmCanaryBank bank = make_canaries();
  const auto j = em::paper_em_conditions::stress_density();
  const auto t = em::paper_em_conditions::chamber();
  std::size_t prev = 0;
  for (int m = 0; m < 360 * 2; m += 10) {
    bank.step(j, t, minutes(10.0));
    const std::size_t now = bank.tripped();
    EXPECT_GE(now, prev);
    prev = now;
  }
  EXPECT_GE(prev, 2u);  // at least the two narrowest by 2x mission life
}

TEST(EmCanary, LifeEstimateGrowsMonotonically) {
  EmCanaryBank bank = make_canaries();
  const auto j = em::paper_em_conditions::stress_density();
  const auto t = em::paper_em_conditions::chamber();
  double prev = bank.estimated_life_consumed();
  for (int m = 0; m < 400; m += 40) {
    bank.step(j, t, minutes(40.0));
    const double now = bank.estimated_life_consumed();
    EXPECT_GE(now, prev - 1e-12);
    prev = now;
  }
  EXPECT_GT(prev, 0.2);
}

// ---- Health monitor -------------------------------------------------------

TEST(HealthMonitor, SmoothsNoise) {
  HealthMonitor m{HealthMonitorParams{}};
  Rng rng{7};
  double last = 0.0;
  for (int i = 0; i < 200; ++i) {
    last = m.update(0.005 + rng.normal(0.0, 0.002));
  }
  EXPECT_NEAR(last, 0.005, 0.0015);
}

TEST(HealthMonitor, AlarmHysteresis) {
  // Each reading moves the estimate a quarter of the way to it.
  HealthMonitor m{HealthMonitorParams{.trip = 0.01, .clear = 0.004}};
  EXPECT_FALSE(m.alarm());
  (void)m.update(0.012);
  EXPECT_TRUE(m.alarm());
  for (int i = 0; i < 3; ++i) {
    (void)m.update(0.0);  // 0.009, 0.00675, 0.0051: alarm holds
    EXPECT_TRUE(m.alarm());
  }
  (void)m.update(0.0);  // 0.0038: clears
  EXPECT_FALSE(m.alarm());
  (void)m.update(0.009);  // 0.0051: below trip, stays clear
  EXPECT_FALSE(m.alarm());
}

TEST(HealthMonitor, NonFiniteReadingIsSkipped) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A tripped alarm must still clear after a NaN reading.
  HealthMonitor tripped{
      HealthMonitorParams{.trip = 0.01, .clear = 0.004}};
  (void)tripped.update(0.02);
  ASSERT_TRUE(tripped.alarm());
  EXPECT_DOUBLE_EQ(tripped.update(nan), 0.02);
  EXPECT_TRUE(tripped.alarm());
  EXPECT_EQ(tripped.readings(), 1u);
  for (int i = 0; i < 8; ++i) (void)tripped.update(0.0);
  EXPECT_FALSE(tripped.alarm());

  // A NaN before any valid reading must not seed the estimate.
  HealthMonitor fresh{HealthMonitorParams{}};
  (void)fresh.update(std::numeric_limits<double>::infinity());
  (void)fresh.update(nan);
  EXPECT_EQ(fresh.readings(), 0u);
  EXPECT_DOUBLE_EQ(fresh.update(0.003), 0.003);
  EXPECT_DOUBLE_EQ(fresh.estimate(), 0.003);
}

TEST(HealthMonitor, FirstReadingSeedsEstimate) {
  HealthMonitor m{HealthMonitorParams{}};
  EXPECT_DOUBLE_EQ(m.update(0.02), 0.02);
}

TEST(HealthMonitor, ResetClears) {
  HealthMonitor m{HealthMonitorParams{}};
  (void)m.update(0.05);
  m.reset();
  EXPECT_FALSE(m.alarm());
  EXPECT_EQ(m.readings(), 0u);
  EXPECT_DOUBLE_EQ(m.estimate(), 0.0);
}

TEST(HealthMonitor, Validation) {
  HealthMonitorParams p;
  p.clear = p.trip;
  EXPECT_THROW(HealthMonitor{p}, Error);
}

// ---- Closed loop ----------------------------------------------------------

TEST(SensorLoop, CanaryAlarmLeadsMissionNucleation) {
  // The whole point: the canary alarm fires while the mission wire still
  // has untouched life, leaving time to schedule EM recovery.
  EmCanaryBank bank = make_canaries();
  em::CompactEm mission{em::CompactEmParams{
      .wire = em::paper_wire(),
      .material = em::paper_calibrated_em_material()}};
  const auto j = em::paper_em_conditions::stress_density();
  const auto t = em::paper_em_conditions::chamber();
  double alarm_time = -1.0;
  double elapsed = 0.0;
  while (!mission.void_open() && elapsed < hours(12.0).value()) {
    bank.step(j, t, minutes(10.0));
    mission.step(j, t, minutes(10.0));
    elapsed += minutes(10.0).value();
    if (alarm_time < 0.0 && bank.tripped() > 0) alarm_time = elapsed;
  }
  ASSERT_GT(alarm_time, 0.0);
  ASSERT_TRUE(mission.void_open());
  // Early warning: the alarm arrives at well under half the mission life.
  EXPECT_LT(alarm_time, 0.5 * elapsed);
}

}  // namespace
}  // namespace dh::sensors
