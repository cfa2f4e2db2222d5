// Calibration tests: the full BTI model must reproduce the paper's
// Table I model column.
#include "device/bti_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
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

TEST(BtiModel, RejectsNonFiniteBiasWithoutMutating) {
  // A NaN or +inf bias used to leave a NaN shift, and -inf emptied every
  // trap; the bias is now checked before the ensemble moves.
  auto model = BtiModel::paper_calibrated();
  model.apply(paper_conditions::accelerated_stress(), hours(1.0));
  const auto bits = [](Volts v) {
    return std::bit_cast<std::uint64_t>(v.value());
  };
  const std::uint64_t total = bits(model.delta_vth());
  const BtiBreakdown before = model.breakdown();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bias :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    EXPECT_THROW(model.apply({Volts{bias}, Celsius{110.0}}, hours(1.0)),
                 Error)
        << bias;
    const BtiBreakdown now = model.breakdown();
    EXPECT_EQ(bits(model.delta_vth()), total) << bias;
    EXPECT_EQ(bits(now.recoverable), bits(before.recoverable)) << bias;
    EXPECT_EQ(bits(now.unlocked), bits(before.unlocked)) << bias;
    EXPECT_EQ(bits(now.locked), bits(before.locked)) << bias;
  }
}

TEST(BtiModel, PaperProtocolMatchesPinnedBits) {
  // Table I and Fig. 4 print a few digits; these are the full bit patterns
  // of the shifts behind them, so a change to the calibration's arithmetic
  // that moves no printed digit still fails here.
  const auto bits = [](Volts v) {
    return std::bit_cast<std::uint64_t>(v.value());
  };
  struct Pinned {
    std::uint64_t after_stress;
    std::uint64_t after_recovery;
  };
  // 24 h accelerated stress, then 6 h under each Table I condition.
  constexpr Pinned kTable1[] = {
      {0x3fb31b1a489d1ac2ULL, 0x3fb2ea3f9344f604ULL},  // No. 1
      {0x3fb31b1a489d1ac2ULL, 0x3fb05bb39a87c4f2ULL},  // No. 2
      {0x3fb31b1a489d1ac2ULL, 0x3fab0832049a4ae2ULL},  // No. 3
      {0x3fb31b1a489d1ac2ULL, 0x3f94dd1685cc5bebULL},  // No. 4
  };
  const auto stress = paper_conditions::accelerated_stress();
  const auto targets = table1_targets();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    auto model = BtiModel::paper_calibrated();
    const auto out =
        run_stress_recovery(model, stress, table1_stress_time(),
                            targets[i].condition, table1_recovery_time());
    EXPECT_EQ(bits(out.dvth_after_stress), kTable1[i].after_stress)
        << targets[i].label;
    EXPECT_EQ(bits(out.dvth_after_recovery), kTable1[i].after_recovery)
        << targets[i].label;
  }
  // Fig. 4's 4 h stress : 1 h recovery (No. 4) pattern: the residual
  // shift at the end of each of its 8 cycles.
  constexpr std::uint64_t kFig4[] = {
      0x3f75cc2dc08f0732ULL, 0x3f80b1da79f3edd3ULL, 0x3f85f280529e2beaULL,
      0x3f8adeedb424a819ULL, 0x3f8f7f36a6214202ULL, 0x3f91ec524c9239f4ULL,
      0x3f93f7ff23dadefaULL, 0x3f95e4d8233a89b2ULL,
  };
  auto model = BtiModel::paper_calibrated();
  for (std::size_t c = 0; c < std::size(kFig4); ++c) {
    model.apply(stress, hours(4.0));
    model.apply(paper_conditions::recovery_no4(), hours(1.0));
    EXPECT_EQ(bits(model.delta_vth()), kFig4[c]) << "cycle " << c + 1;
  }
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
