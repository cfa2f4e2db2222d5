#include "sched/workload.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace dh::sched {
namespace {

TEST(Workload, ConstantKind) {
  Workload w{WorkloadParams{.kind = WorkloadKind::kConstant,
                            .utilization = 0.6}};
  Rng rng{1};
  EXPECT_DOUBLE_EQ(w.sample(hours(0.0), rng), 0.6);
  EXPECT_DOUBLE_EQ(w.sample(days(100.0), rng), 0.6);
}

TEST(Workload, PeriodicDuty) {
  WorkloadParams p;
  p.kind = WorkloadKind::kPeriodic;
  p.utilization = 0.9;
  p.period = hours(10.0);
  p.duty = 0.3;
  Workload w{p};
  Rng rng{1};
  EXPECT_DOUBLE_EQ(w.sample(hours(1.0), rng), 0.9);   // in the on window
  EXPECT_DOUBLE_EQ(w.sample(hours(5.0), rng), 0.0);   // off
  EXPECT_DOUBLE_EQ(w.sample(hours(11.0), rng), 0.9);  // next period
}

TEST(Workload, PhaseShiftsTheWindow) {
  WorkloadParams p;
  p.kind = WorkloadKind::kPeriodic;
  p.period = hours(10.0);
  p.duty = 0.3;
  p.phase = hours(5.0);
  Workload w{p};
  Rng rng{1};
  EXPECT_DOUBLE_EQ(w.sample(hours(1.0), rng), 0.0);  // shifted off
  EXPECT_DOUBLE_EQ(w.sample(hours(6.0), rng), p.utilization);
}

TEST(Workload, BurstyStaysInRange) {
  WorkloadParams p;
  p.kind = WorkloadKind::kBursty;
  p.utilization = 0.8;
  Workload w{p};
  Rng rng{3};
  bool saw_high = false, saw_low = false;
  for (int i = 0; i < 500; ++i) {
    const double u = w.sample(hours(i), rng);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 0.8);
    saw_high |= u > 0.7;
    saw_low |= u < 0.1;
  }
  EXPECT_TRUE(saw_high);
  EXPECT_TRUE(saw_low);
}

TEST(Workload, DiurnalOscillates) {
  WorkloadParams p;
  p.kind = WorkloadKind::kDiurnal;
  p.utilization = 1.0;
  p.period = hours(24.0);
  Workload w{p};
  Rng rng{5};
  double lo = 1e9, hi = -1e9;
  for (int h = 0; h < 24; ++h) {
    const double u = w.sample(hours(h), rng);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  EXPECT_GT(hi - lo, 0.3);
}

TEST(Workload, Validation) {
  WorkloadParams p;
  p.utilization = 1.5;
  EXPECT_THROW(Workload{p}, Error);
  p = WorkloadParams{};
  p.duty = 0.0;
  EXPECT_THROW(Workload{p}, Error);
}

TEST(Workload, RejectsBurstSwitchProbOutsideUnitInterval) {
  // 1.5 would flip the burst state every step and NaN never.
  for (const double prob : {1.5, -0.1, std::nan("")}) {
    WorkloadParams p;
    p.kind = WorkloadKind::kBursty;
    p.burst_switch_prob = prob;
    EXPECT_THROW(Workload{p}, Error);
  }
  for (const double prob : {0.0, 1.0}) {
    WorkloadParams p;
    p.kind = WorkloadKind::kBursty;
    p.burst_switch_prob = prob;
    EXPECT_NO_THROW(Workload{p});
  }
}

}  // namespace
}  // namespace dh::sched
