#include "sched/core_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh::sched {
namespace {

Core make_core() { return Core{CoreParams{}}; }

std::vector<std::uint8_t> state_bytes(const Core& c) {
  ckpt::Serializer s;
  c.save_state(s);
  return s.take();
}

TEST(CoreModel, FreshCoreAtFullSpeed) {
  const Core c = make_core();
  EXPECT_DOUBLE_EQ(c.degradation(), 0.0);
  EXPECT_DOUBLE_EQ(c.fmax().value(), 2.0e9);
}

TEST(CoreModel, RunningAgesTheCore) {
  Core c = make_core();
  for (int d = 0; d < 90; ++d) {
    c.step(CoreAction::kRun, 0.9, Celsius{85.0}, days(1.0));
  }
  EXPECT_GT(c.delta_vth().value(), 0.0);
  EXPECT_GT(c.degradation(), 0.0);
}

TEST(CoreModel, IdleAgesSlowerThanRunning) {
  Core busy = make_core();
  Core idle = make_core();
  for (int d = 0; d < 60; ++d) {
    busy.step(CoreAction::kRun, 1.0, Celsius{85.0}, days(1.0));
    idle.step(CoreAction::kIdle, 0.0, Celsius{85.0}, days(1.0));
  }
  EXPECT_GT(busy.delta_vth().value(), 5.0 * idle.delta_vth().value());
}

TEST(CoreModel, ActiveRecoveryHeals) {
  Core c = make_core();
  for (int d = 0; d < 60; ++d) {
    c.step(CoreAction::kRun, 1.0, Celsius{85.0}, days(1.0));
  }
  const double aged = c.delta_vth().value();
  for (int d = 0; d < 10; ++d) {
    c.step(CoreAction::kBtiActiveRecovery, 0.0, Celsius{85.0}, days(1.0));
  }
  EXPECT_LT(c.delta_vth().value(), aged);
}

TEST(CoreModel, UtilizationScalesAging) {
  Core heavy = make_core();
  Core light = make_core();
  for (int d = 0; d < 60; ++d) {
    heavy.step(CoreAction::kRun, 1.0, Celsius{85.0}, days(1.0));
    light.step(CoreAction::kRun, 0.2, Celsius{85.0}, days(1.0));
  }
  EXPECT_GT(heavy.delta_vth().value(), light.delta_vth().value());
}

TEST(CoreModel, HotterAgesFaster) {
  Core hot = make_core();
  Core cool = make_core();
  for (int d = 0; d < 60; ++d) {
    hot.step(CoreAction::kRun, 1.0, Celsius{105.0}, days(1.0));
    cool.step(CoreAction::kRun, 1.0, Celsius{55.0}, days(1.0));
  }
  EXPECT_GT(hot.delta_vth().value(), cool.delta_vth().value());
}

TEST(CoreModel, PowerModelShape) {
  const Core c = make_core();
  const double p_full =
      c.power(CoreAction::kRun, 1.0, Celsius{85.0}).value();
  const double p_half =
      c.power(CoreAction::kRun, 0.5, Celsius{85.0}).value();
  const double p_idle =
      c.power(CoreAction::kIdle, 0.0, Celsius{85.0}).value();
  const double p_rec =
      c.power(CoreAction::kBtiActiveRecovery, 0.0, Celsius{85.0}).value();
  EXPECT_GT(p_full, p_half);
  EXPECT_GT(p_half, p_idle);
  EXPECT_LT(p_idle, 0.2 * p_full);
  EXPECT_LT(p_rec, 0.2 * p_full);
}

TEST(CoreModel, LeakageGrowsWithTemperature) {
  const Core c = make_core();
  EXPECT_GT(c.power(CoreAction::kRun, 0.0, Celsius{105.0}).value(),
            c.power(CoreAction::kRun, 0.0, Celsius{45.0}).value());
}

TEST(CoreModel, SupplyCurrentMatchesPower) {
  const Core c = make_core();
  const double p = c.power(CoreAction::kRun, 0.8, Celsius{85.0}).value();
  const double i =
      c.supply_current(CoreAction::kRun, 0.8, Celsius{85.0}).value();
  EXPECT_NEAR(i, p / 0.90, 1e-12);  // at the 0.9 V supply
}

TEST(CoreModel, InvalidUtilizationRejected) {
  Core c = make_core();
  EXPECT_THROW(c.step(CoreAction::kRun, 1.5, Celsius{85.0}, hours(1.0)),
               dh::Error);
}

TEST(CoreModel, StepAllMatchesPerCoreStepBitForBit) {
  // More cores than step_all stages at once; every core cycles through
  // run at several utilizations (uneven substep counts, u = 0 and 1 with
  // a single interval), idle and active recovery, each at its own
  // temperature.
  constexpr std::size_t kCores = 40;
  std::vector<Core> batched(kCores, make_core());
  std::vector<Core> single(kCores, make_core());
  struct Mix {
    CoreAction action;
    double utilization;
  };
  const std::vector<Mix> mixes = {
      {CoreAction::kRun, 0.0},   {CoreAction::kRun, 0.013},
      {CoreAction::kRun, 0.5},   {CoreAction::kRun, 1.0},
      {CoreAction::kIdle, 0.3},  {CoreAction::kBtiActiveRecovery, 0.0},
  };
  std::vector<CoreAction> actions(kCores);
  std::vector<double> util(kCores);
  std::vector<Celsius> temps(kCores);
  for (std::size_t q = 0; q < 300; ++q) {
    const Seconds dt = q % 4 == 3 ? minutes(37.0) : hours(6.0);
    for (std::size_t i = 0; i < kCores; ++i) {
      const Mix& m = mixes[(i * 5 + q * 7 + q / 11) % mixes.size()];
      actions[i] = m.action;
      util[i] = m.utilization;
      temps[i] = Celsius{45.0 + 1.5 * static_cast<double>(i) +
                         static_cast<double>(q % 9)};
      single[i].step(actions[i], util[i], temps[i], dt);
    }
    Core::step_all(batched, actions, util, temps, dt);
    for (std::size_t i = 0; i < kCores; ++i) {
      const device::BtiBreakdown a = batched[i].bti_breakdown();
      const device::BtiBreakdown b = single[i].bti_breakdown();
      ASSERT_EQ(batched[i].delta_vth().value(), single[i].delta_vth().value())
          << "core " << i << " quantum " << q;
      ASSERT_EQ(a.recoverable.value(), b.recoverable.value());
      ASSERT_EQ(a.unlocked.value(), b.unlocked.value());
      ASSERT_EQ(a.locked.value(), b.locked.value());
      ASSERT_EQ(state_bytes(batched[i]), state_bytes(single[i]));
    }
  }
  EXPECT_GT(batched[0].delta_vth().value(), 0.0);
}

TEST(CoreModel, StepAllRejectsBadInputWithoutMutating) {
  constexpr std::size_t kCores = 40;
  std::vector<Core> cores(kCores, make_core());
  std::vector<CoreAction> actions(kCores, CoreAction::kRun);
  std::vector<double> util(kCores, 0.7);
  std::vector<Celsius> temps(kCores, Celsius{85.0});
  Core::step_all(cores, actions, util, temps, hours(6.0));
  const auto before = state_bytes(cores[0]);
  const auto check_unchanged = [&] {
    for (const Core& c : cores) EXPECT_EQ(state_bytes(c), before);
  };
  // A bad utilization on the last core, past the first chunk of cores.
  util.back() = 1.5;
  EXPECT_THROW(Core::step_all(cores, actions, util, temps, hours(6.0)),
               dh::Error);
  check_unchanged();
  util.back() = 0.7;
  // A bad temperature on the last core.
  for (const double bad_c :
       {std::numeric_limits<double>::quiet_NaN(), -300.0}) {
    temps.back() = Celsius{bad_c};
    EXPECT_THROW(Core::step_all(cores, actions, util, temps, hours(6.0)),
                 dh::Error)
        << bad_c;
    check_unchanged();
  }
  temps.back() = Celsius{85.0};
  for (const double dt : {-1.0, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(), 1e13}) {
    EXPECT_THROW(Core::step_all(cores, actions, util, temps, Seconds{dt}),
                 dh::Error)
        << dt;
    check_unchanged();
  }
  temps.pop_back();
  EXPECT_THROW(Core::step_all(cores, actions, util, temps, hours(6.0)),
               dh::Error);
  check_unchanged();
}

TEST(CoreModel, StepRejectsBadDtForEveryActionWithoutMutating) {
  // kRun used to skip a negative or NaN dt silently (both of its
  // intervals failed their > 0 tests) while the other actions threw.
  Core c = make_core();
  c.step(CoreAction::kRun, 0.5, Celsius{85.0}, hours(6.0));
  const auto before = state_bytes(c);
  for (const CoreAction a : {CoreAction::kRun, CoreAction::kIdle,
                             CoreAction::kBtiActiveRecovery}) {
    for (const double dt : {-3600.0, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
      EXPECT_THROW(c.step(a, 0.5, Celsius{85.0}, Seconds{dt}), dh::Error)
          << to_string(a) << " dt=" << dt;
      EXPECT_EQ(state_bytes(c), before) << to_string(a) << " dt=" << dt;
    }
  }
}

TEST(CoreModel, ActionNames) {
  EXPECT_STREQ(to_string(CoreAction::kRun), "run");
  EXPECT_STREQ(to_string(CoreAction::kIdle), "idle");
  EXPECT_STREQ(to_string(CoreAction::kBtiActiveRecovery), "bti-recovery");
}

}  // namespace
}  // namespace dh::sched
