// Calibration tests: the full BTI model must reproduce the paper's
// Table I model column.
#include "device/bti_model.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "device/calibration.hpp"

namespace dh::device {
namespace {

TEST(BtiModel, TableOneModelColumn) {
  const auto stress = paper_conditions::accelerated_stress();
  for (const auto& target : table1_targets()) {
    auto model = BtiModel::paper_calibrated();
    const auto out =
        run_stress_recovery(model, stress, table1_stress_time(),
                            target.condition, table1_recovery_time());
    // Paper model column: 1% / 14.4% / 29.2% / 72.7%.
    EXPECT_NEAR(out.recovery_fraction(), target.model_fraction, 0.007)
        << target.label;
  }
}

TEST(BtiModel, RecoveryOrderingAcrossConditions) {
  const auto stress = paper_conditions::accelerated_stress();
  double prev = -1.0;
  for (const auto& target : table1_targets()) {
    auto model = BtiModel::paper_calibrated();
    const auto out =
        run_stress_recovery(model, stress, table1_stress_time(),
                            target.condition, table1_recovery_time());
    EXPECT_GT(out.recovery_fraction(), prev) << target.label;
    prev = out.recovery_fraction();
  }
}

TEST(BtiModel, PermanentComponentSurvivesExtendedRecovery) {
  // "there is still a permanent component (>27%) which cannot be
  //  recovered with the extended recovery period (much longer than 6h)".
  auto model = BtiModel::paper_calibrated();
  model.apply(paper_conditions::accelerated_stress(), table1_stress_time());
  const double stressed = model.delta_vth().value();
  model.apply(paper_conditions::recovery_no4(), hours(24.0));
  const double residual = model.delta_vth().value() / stressed;
  EXPECT_GT(residual, 0.20);
  EXPECT_LT(residual, 0.35);
}

TEST(BtiModel, FastRecoveryClaim) {
  // "72.4% of the wearout is recovered within only 1/4 of the stress
  //  time" — 6 h recovery after 24 h stress under condition No. 4.
  auto model = BtiModel::paper_calibrated();
  const auto out = run_stress_recovery(
      model, paper_conditions::accelerated_stress(), hours(24.0),
      paper_conditions::recovery_no4(), hours(6.0));
  EXPECT_GT(out.recovery_fraction(), 0.70);
}

TEST(BtiModel, BreakdownSumsToTotal) {
  auto model = BtiModel::paper_calibrated();
  model.apply(paper_conditions::accelerated_stress(), hours(10.0));
  const auto b = model.breakdown();
  EXPECT_NEAR(b.total().value(), model.delta_vth().value(), 1e-12);
  EXPECT_GT(b.recoverable.value(), 0.0);
}

TEST(BtiModel, ResetRestoresFresh) {
  auto model = BtiModel::paper_calibrated();
  model.apply(paper_conditions::accelerated_stress(), hours(24.0));
  model.reset();
  EXPECT_DOUBLE_EQ(model.delta_vth().value(), 0.0);
}

TEST(BtiModel, MobilityDegradesWithWearout) {
  auto model = BtiModel::paper_calibrated();
  EXPECT_DOUBLE_EQ(model.mobility_factor(), 1.0);
  model.apply(paper_conditions::accelerated_stress(), hours(24.0));
  EXPECT_LT(model.mobility_factor(), 1.0);
  EXPECT_GT(model.mobility_factor(), 0.9);
}

TEST(BtiModel, StressRecoveryHelperValidatesInput) {
  auto model = BtiModel::paper_calibrated();
  EXPECT_THROW((void)run_stress_recovery(model, paper_conditions::recovery_no1(),
                                   hours(1.0),
                                   paper_conditions::recovery_no4(),
                                   hours(1.0)),
               Error);
}

TEST(BtiModel, RejectsNonFiniteOrOversizedDt) {
  // An infinite step used to leave a NaN shift, and a huge one overflowed
  // the permanent component's int substep count (undefined behaviour).
  auto model = BtiModel::paper_calibrated();
  model.apply(paper_conditions::accelerated_stress(), hours(2.0));
  const BtiBreakdown before = model.breakdown();
  const auto check_unchanged = [&](double dt) {
    const BtiBreakdown now = model.breakdown();
    EXPECT_EQ(now.recoverable.value(), before.recoverable.value()) << dt;
    EXPECT_EQ(now.unlocked.value(), before.unlocked.value()) << dt;
    EXPECT_EQ(now.locked.value(), before.locked.value()) << dt;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double dt : {kInf, -kInf,
                          std::numeric_limits<double>::quiet_NaN(), 1e13}) {
    EXPECT_THROW(model.apply(paper_conditions::accelerated_stress(),
                             Seconds{dt}),
                 Error)
        << dt;
    check_unchanged(dt);
    EXPECT_THROW(model.apply(paper_conditions::recovery_no4(), Seconds{dt}),
                 Error)
        << dt;
    check_unchanged(dt);
  }
  // The bound is the 60 s substep counter's range. Recovery is closed
  // form, so the longest accepted step is cheap to apply.
  const double max_substeps = std::numeric_limits<int>::max();
  EXPECT_NO_THROW(model.apply(paper_conditions::recovery_no4(),
                              Seconds{60.0 * max_substeps}));
  EXPECT_THROW(model.apply(paper_conditions::recovery_no4(),
                           Seconds{60.0 * (max_substeps + 1.0)}),
               Error);
}

TEST(BtiModel, NominalConditionsAgeSlowly) {
  // A 0.8 V, 50 C device must age orders of magnitude slower than the
  // accelerated test condition.
  auto nominal = BtiModel::paper_calibrated();
  auto accelerated = BtiModel::paper_calibrated();
  nominal.apply({Volts{0.8}, Celsius{50.0}}, hours(24.0));
  accelerated.apply(paper_conditions::accelerated_stress(), hours(24.0));
  EXPECT_LT(nominal.delta_vth().value(),
            0.2 * accelerated.delta_vth().value());
}

}  // namespace
}  // namespace dh::device
