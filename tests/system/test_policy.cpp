#include "sched/policy.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/error.hpp"

namespace dh::sched {
namespace {

std::vector<CoreObservation> make_obs(std::size_t n, double demand = 0.7) {
  std::vector<CoreObservation> obs(n);
  for (auto& o : obs) o.demanded_utilization = demand;
  return obs;
}

TEST(Policy, NoRecoveryAlwaysRuns) {
  auto p = make_no_recovery_policy();
  Rng rng{1};
  const auto d = p->decide(make_obs(4), hours(100.0), hours(6.0), rng);
  ASSERT_EQ(d.actions.size(), 4u);
  for (const auto a : d.actions) EXPECT_EQ(a, CoreAction::kRun);
  EXPECT_FALSE(d.em_recovery_mode);
  EXPECT_EQ(p->name(), "no-recovery");
}

TEST(Policy, PassiveIdlesZeroDemand) {
  auto p = make_passive_idle_policy();
  Rng rng{1};
  auto obs = make_obs(3);
  obs[1].demanded_utilization = 0.0;
  const auto d = p->decide(obs, hours(0.0), hours(6.0), rng);
  EXPECT_EQ(d.actions[0], CoreAction::kRun);
  EXPECT_EQ(d.actions[1], CoreAction::kIdle);
  EXPECT_EQ(d.actions[2], CoreAction::kRun);
}

TEST(Policy, PeriodicSchedulesRecoveryWindow) {
  PeriodicPolicyParams pp;
  pp.period = hours(10.0);
  pp.bti_recovery_fraction = 0.3;
  auto p = make_periodic_active_policy(pp);
  Rng rng{1};
  // Inside the operating window.
  auto d1 = p->decide(make_obs(2), hours(2.0), hours(1.0), rng);
  EXPECT_EQ(d1.actions[0], CoreAction::kRun);
  // Inside the trailing recovery window.
  auto d2 = p->decide(make_obs(2), hours(8.0), hours(1.0), rng);
  EXPECT_EQ(d2.actions[0], CoreAction::kBtiActiveRecovery);
  EXPECT_EQ(d2.actions[1], CoreAction::kBtiActiveRecovery);
}

TEST(Policy, PeriodicUsesIdleDemandForRecovery) {
  auto p = make_periodic_active_policy();
  Rng rng{1};
  auto obs = make_obs(2);
  obs[1].demanded_utilization = 0.0;
  const auto d = p->decide(obs, hours(1.0), hours(1.0), rng);
  EXPECT_EQ(d.actions[1], CoreAction::kBtiActiveRecovery);
}

TEST(Policy, AdaptiveTriggersOnThresholdWithHysteresis) {
  AdaptivePolicyParams ap;
  ap.threshold = Volts{0.010};
  ap.release = Volts{0.004};
  auto p = make_adaptive_sensor_policy(ap);
  Rng rng{1};
  auto obs = make_obs(1);
  obs[0].sensed_dvth = Volts{0.005};  // below threshold
  EXPECT_EQ(p->decide(obs, hours(0.0), hours(1.0), rng).actions[0],
            CoreAction::kRun);
  obs[0].sensed_dvth = Volts{0.012};  // crosses threshold
  EXPECT_EQ(p->decide(obs, hours(1.0), hours(1.0), rng).actions[0],
            CoreAction::kBtiActiveRecovery);
  obs[0].sensed_dvth = Volts{0.006};  // between release and threshold
  EXPECT_EQ(p->decide(obs, hours(2.0), hours(1.0), rng).actions[0],
            CoreAction::kBtiActiveRecovery);  // hysteresis holds
  obs[0].sensed_dvth = Volts{0.003};  // below release
  EXPECT_EQ(p->decide(obs, hours(3.0), hours(1.0), rng).actions[0],
            CoreAction::kRun);
}

TEST(Policy, DarkSiliconParksSpares) {
  RotationPolicyParams rp;
  rp.spares = 2;
  auto p = make_dark_silicon_policy(rp);
  Rng rng{1};
  const auto d = p->decide(make_obs(8), hours(0.0), hours(6.0), rng);
  int parked = 0;
  for (const auto a : d.actions) {
    if (a == CoreAction::kBtiActiveRecovery) ++parked;
  }
  EXPECT_EQ(parked, 2);
}

TEST(Policy, DarkSiliconRotatesOverTime) {
  RotationPolicyParams rp;
  rp.spares = 1;
  rp.rotation_period = hours(24.0);
  auto p = make_dark_silicon_policy(rp);
  Rng rng{1};
  std::set<std::size_t> parked_cores;
  for (int day = 0; day < 8; ++day) {
    const auto d = p->decide(make_obs(8), days(day), hours(6.0), rng);
    for (std::size_t i = 0; i < d.actions.size(); ++i) {
      if (d.actions[i] == CoreAction::kBtiActiveRecovery) {
        parked_cores.insert(i);
      }
    }
  }
  // Rotation must reach every core across 8 periods on an 8-core array.
  EXPECT_EQ(parked_cores.size(), 8u);
}

TEST(Policy, EmRecoveryDutyEngagesPeriodically) {
  auto p = make_dark_silicon_policy({.spares = 1, .em_recovery_duty = 0.3});
  Rng rng{1};
  int em_steps = 0;
  const int total = 40;
  for (int s = 0; s < total; ++s) {
    const auto d = p->decide(make_obs(4), hours(6.0 * s), hours(6.0), rng);
    if (d.em_recovery_mode) ++em_steps;
  }
  EXPECT_GT(em_steps, total / 10);
  EXPECT_LT(em_steps, total / 2);
}

TEST(Policy, FactoriesRejectInvalidParameters) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double period : {0.0, -3600.0, nan, inf}) {
    EXPECT_THROW((void)make_periodic_active_policy({.period = Seconds{period}}),
                 Error)
        << "period " << period;
    EXPECT_THROW(
        (void)make_dark_silicon_policy({.rotation_period = Seconds{period}}),
        Error)
        << "rotation_period " << period;
  }
  for (const double f : {-0.1, 1.5, nan}) {
    EXPECT_THROW(
        (void)make_periodic_active_policy({.bti_recovery_fraction = f}), Error)
        << "bti_recovery_fraction " << f;
    EXPECT_THROW((void)make_periodic_active_policy({.em_recovery_duty = f}),
                 Error)
        << "periodic em_recovery_duty " << f;
    EXPECT_THROW((void)make_adaptive_sensor_policy({.em_recovery_duty = f}),
                 Error)
        << "adaptive em_recovery_duty " << f;
    EXPECT_THROW((void)make_dark_silicon_policy({.em_recovery_duty = f}),
                 Error)
        << "rotation em_recovery_duty " << f;
  }
  EXPECT_THROW((void)make_adaptive_sensor_policy(
                   {.threshold = Volts{0.004}, .release = Volts{0.005}}),
               Error);
  EXPECT_THROW(
      (void)make_adaptive_sensor_policy({.release = Volts{nan}}), Error);
  // The closed ends stay legal: a whole-period recovery window, no or
  // constant EM recovery, and a release equal to the threshold.
  EXPECT_NO_THROW((void)make_periodic_active_policy(
      {.bti_recovery_fraction = 1.0, .em_recovery_duty = 0.0}));
  EXPECT_NO_THROW((void)make_dark_silicon_policy({.em_recovery_duty = 1.0}));
  EXPECT_NO_THROW((void)make_adaptive_sensor_policy(
      {.threshold = Volts{0.004}, .release = Volts{0.004}}));
}

}  // namespace
}  // namespace dh::sched
