#include "em/compact_em.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "em/em_sensor.hpp"
#include "em/korhonen.hpp"

namespace dh::em {
namespace {

CompactEm make_compact() {
  return CompactEm{CompactEmParams{.wire = paper_wire(),
                                   .material =
                                       paper_calibrated_em_material()}};
}

TEST(CompactEm, FreshState) {
  const CompactEm m = make_compact();
  EXPECT_DOUBLE_EQ(m.end_stress().value(), 0.0);
  EXPECT_FALSE(m.void_open());
  EXPECT_FALSE(m.broken());
}

TEST(CompactEm, NucleationNearPde) {
  CompactEm m = make_compact();
  const auto j = paper_em_conditions::stress_density();
  const auto t = paper_em_conditions::chamber();
  double t_nuc = -1.0;
  for (int minute = 0; minute < 1200 && t_nuc < 0.0; minute += 5) {
    m.step(j, t, minutes(5.0));
    if (m.void_open()) t_nuc = minute + 5;
  }
  ASSERT_GT(t_nuc, 0.0);
  const double analytic = in_minutes(CompactEm::analytic_nucleation_time(
      paper_calibrated_em_material(), paper_wire(), j, t));
  EXPECT_NEAR(t_nuc, analytic, 0.3 * analytic);
}

TEST(CompactEm, StressFollowsCurrentSign) {
  CompactEm fwd = make_compact();
  CompactEm rev = make_compact();
  fwd.step(paper_em_conditions::stress_density(),
           paper_em_conditions::chamber(), hours(2.0));
  rev.step(paper_em_conditions::reverse_density(),
           paper_em_conditions::chamber(), hours(2.0));
  EXPECT_GT(fwd.end_stress().value(), 0.0);
  EXPECT_NEAR(rev.end_stress().value(), -fwd.end_stress().value(),
              1e-9 * fwd.end_stress().value());
}

TEST(CompactEm, VoidGrowsThenHeals) {
  CompactEm m = make_compact();
  const auto t = paper_em_conditions::chamber();
  m.step(paper_em_conditions::stress_density(), t, minutes(500.0));
  ASSERT_TRUE(m.void_open());
  const double grown = m.void_length().value();
  ASSERT_GT(grown, 0.0);
  m.step(paper_em_conditions::reverse_density(), t, minutes(300.0));
  EXPECT_LT(m.void_length().value(), grown);
}

TEST(CompactEm, ImmobilizedResidueSurvivesHealing) {
  CompactEm m = make_compact();
  const auto t = paper_em_conditions::chamber();
  m.step(paper_em_conditions::stress_density(), t, minutes(550.0));
  m.step(paper_em_conditions::reverse_density(), t, minutes(700.0));
  EXPECT_FALSE(m.void_open());
  EXPECT_GT(m.fixed_void_length().value(), 0.0);
}

TEST(CompactEm, ResistanceTracksVoid) {
  CompactEm m = make_compact();
  const auto t = paper_em_conditions::chamber();
  const double r0 = m.resistance(t).value();
  m.step(paper_em_conditions::stress_density(), t, minutes(700.0));
  EXPECT_GT(m.resistance(t).value(), r0);
}

TEST(CompactEm, BreaksUnderSustainedStress) {
  CompactEm m = make_compact();
  const auto t = paper_em_conditions::chamber();
  for (int h = 0; h < 80 && !m.broken(); ++h) {
    m.step(paper_em_conditions::stress_density(), t, hours(1.0));
  }
  EXPECT_TRUE(m.broken());
  EXPECT_GE(m.resistance(t).value(), 1e6);
}

TEST(CompactEm, ResetRestoresFresh) {
  CompactEm m = make_compact();
  m.step(paper_em_conditions::stress_density(),
         paper_em_conditions::chamber(), hours(8.0));
  m.reset();
  EXPECT_DOUBLE_EQ(m.end_stress().value(), 0.0);
  EXPECT_FALSE(m.void_open());
  EXPECT_DOUBLE_EQ(m.void_length().value(), 0.0);
}

TEST(CompactEm, SaturatesBelowCriticalAtLowCurrent) {
  // Well below the reference density the pool bank saturates before the
  // critical stress: approximate Blech immortality.
  CompactEm m = make_compact();
  const auto t = paper_em_conditions::chamber();
  for (int d = 0; d < 60; ++d) {
    m.step(mega_amps_per_cm2(1.5), t, days(1.0));
  }
  EXPECT_FALSE(m.void_open());
}

TEST(CompactEm, RejectsNonFiniteOrNegativeDt) {
  // An infinite step would leave the void length NaN with broken() false,
  // and the next resistance() would throw.
  CompactEm m = make_compact();
  const auto j = paper_em_conditions::stress_density();
  const auto t = paper_em_conditions::chamber();
  m.step(j, t, hours(8.0));
  ASSERT_TRUE(m.void_open());
  const double stress = m.end_stress().value();
  const double void_m = m.void_length().value();
  for (const double dt : {HUGE_VAL, std::nan(""), -1.0}) {
    EXPECT_THROW(m.step(j, t, Seconds{dt}), Error);
    EXPECT_EQ(m.end_stress().value(), stress);
    EXPECT_EQ(m.void_length().value(), void_m);
    EXPECT_FALSE(m.broken());
  }
  EXPECT_TRUE(std::isfinite(m.resistance(t).value()));
}

TEST(CompactEm, RejectsNonFiniteCurrentDensity) {
  // A NaN density used to poison every pool for good: the same wire then
  // ran 200 h at 8 MA/cm^2 and 230 C with a NaN end stress, no void and no
  // break.
  CompactEm m = make_compact();
  const Celsius t{230.0};
  for (const double j : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(m.step(AmpsPerM2{j}, t, hours(1.0)), Error);
  }
  EXPECT_EQ(m.end_stress().value(), 0.0);
  for (int h = 0; h < 200 && !m.broken(); ++h) {
    m.step(mega_amps_per_cm2(8.0), t, hours(1.0));
  }
  EXPECT_TRUE(m.broken());
}

TEST(CompactEm, FactoredStepRejectsWhatThePerCallStepRejects) {
  CompactEm m = make_compact();
  const Celsius t{230.0};
  const EmStepFactors f = m.factors(t, hours(1.0));
  EXPECT_THROW(m.step(AmpsPerM2{std::nan("")}, f), Error);
  EXPECT_THROW(m.step(AmpsPerM2{HUGE_VAL}, f), Error);
  EXPECT_EQ(m.end_stress().value(), 0.0);
  for (const double dt : {HUGE_VAL, std::nan(""), -1.0}) {
    EXPECT_THROW((void)m.factors(t, Seconds{dt}), Error);
  }
}

TEST(CompactEm, FactoredStepMatchesPerCallStepBitForBit) {
  // Forward and reverse windows at a temperature that moves every step,
  // through nucleation, growth, immobilization and healing.
  CompactEm per_call = make_compact();
  CompactEm factored = make_compact();
  bool opened = false;
  bool closed_again = false;
  for (int k = 0; k < 200; ++k) {
    const Celsius t{225.0 + 10.0 * std::sin(0.3 * k)};
    const Seconds dt = k % 17 == 5 ? Seconds{0.0} : minutes(20.0);
    const AmpsPerM2 j = (k / 30) % 2 == 0
                            ? paper_em_conditions::stress_density()
                            : paper_em_conditions::reverse_density();
    per_call.step(j, t, dt);
    factored.step(j, factored.factors(t, dt));
    ASSERT_EQ(factored.end_stress().value(), per_call.end_stress().value())
        << k;
    ASSERT_EQ(factored.void_length().value(),
              per_call.void_length().value())
        << k;
    ASSERT_EQ(factored.fixed_void_length().value(),
              per_call.fixed_void_length().value())
        << k;
    ASSERT_EQ(factored.void_open(), per_call.void_open()) << k;
    opened = opened || per_call.void_open();
    closed_again = closed_again || (opened && !per_call.void_open());
  }
  EXPECT_TRUE(closed_again);
  EXPECT_GT(per_call.fixed_void_length().value(), 0.0);
}

TEST(CompactEm, InvalidTauRejected) {
  CompactEmParams p;
  p.wire = paper_wire();
  p.material = paper_calibrated_em_material();
  p.j_ref = AmpsPerM2{0.0};  // makes the derived tau undefined
  EXPECT_THROW(CompactEm{p}, Error);
}

}  // namespace
}  // namespace dh::em
