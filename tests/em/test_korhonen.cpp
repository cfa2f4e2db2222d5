#include "em/korhonen.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"

namespace dh::em {
namespace {

KorhonenSolver make_solver() {
  return KorhonenSolver{paper_wire(), paper_calibrated_em_material()};
}

TEST(Korhonen, FreshWireHasNoStressOrVoid) {
  const KorhonenSolver s = make_solver();
  EXPECT_DOUBLE_EQ(s.stress_at(WireEnd::kStart).value(), 0.0);
  EXPECT_FALSE(s.nucleated(WireEnd::kStart));
  EXPECT_FALSE(s.broken());
  EXPECT_DOUBLE_EQ(s.total_void_length().value(), 0.0);
}

TEST(Korhonen, ForwardCurrentBuildsTensionAtCathode) {
  KorhonenSolver s = make_solver();
  s.step(paper_em_conditions::stress_density(),
         paper_em_conditions::chamber(), hours(1.0));
  EXPECT_GT(s.stress_at(WireEnd::kStart).value(), 0.0);
  EXPECT_LT(s.stress_at(WireEnd::kEnd).value(), 0.0);  // compression at anode
}

TEST(Korhonen, ReverseCurrentMirrorsTheProfile) {
  KorhonenSolver fwd = make_solver();
  KorhonenSolver rev = make_solver();
  fwd.step(paper_em_conditions::stress_density(),
           paper_em_conditions::chamber(), hours(2.0));
  rev.step(paper_em_conditions::reverse_density(),
           paper_em_conditions::chamber(), hours(2.0));
  EXPECT_NEAR(fwd.stress_at(WireEnd::kStart).value(),
              rev.stress_at(WireEnd::kEnd).value(),
              1e-6 * std::abs(fwd.stress_at(WireEnd::kStart).value()));
}

TEST(Korhonen, StressIntegralConservedWhileBlocked) {
  // d/dt integral(sigma) = q(L) - q(0) = 0 with blocked ends.
  KorhonenSolver s = make_solver();
  s.step(paper_em_conditions::stress_density(),
         paper_em_conditions::chamber(), hours(3.0));
  ASSERT_FALSE(s.ever_nucleated());
  const double integral = s.stress_integral();
  const double peak = std::abs(s.stress_at(WireEnd::kStart).value());
  // Integral stays near zero relative to peak*length scale.
  EXPECT_LT(std::abs(integral), 1e-3 * peak * s.wire().length.value());
}

TEST(Korhonen, EarlyStressFollowsSqrtTime) {
  KorhonenSolver s = make_solver();
  const auto j = paper_em_conditions::stress_density();
  const auto t = paper_em_conditions::chamber();
  s.step(j, t, hours(1.0));
  const double s1 = s.stress_at(WireEnd::kStart).value();
  s.step(j, t, hours(3.0));  // total 4 h
  const double s4 = s.stress_at(WireEnd::kStart).value();
  EXPECT_NEAR(s4 / s1, 2.0, 0.1);  // sqrt(4/1)
}

TEST(Korhonen, NucleationNearAnalyticPrediction) {
  KorhonenSolver s = make_solver();
  const Seconds analytic = CompactEm::analytic_nucleation_time(
      s.material(), s.wire(), paper_em_conditions::stress_density(),
      paper_em_conditions::chamber());
  while (!s.ever_nucleated() && s.elapsed().value() < 3.0 * analytic.value()) {
    s.step(paper_em_conditions::stress_density(),
           paper_em_conditions::chamber(), minutes(5.0));
  }
  ASSERT_TRUE(s.ever_nucleated());
  EXPECT_NEAR(s.elapsed().value(), analytic.value(), 0.15 * analytic.value());
}

TEST(Korhonen, ResistanceFlatDuringNucleationPhase) {
  KorhonenSolver s = make_solver();
  const auto t = paper_em_conditions::chamber();
  const double r0 = s.resistance(t).value();
  s.step(paper_em_conditions::stress_density(), t, hours(4.0));
  ASSERT_FALSE(s.ever_nucleated());
  EXPECT_NEAR(s.resistance(t).value(), r0, 1e-9);
}

TEST(Korhonen, VoidGrowsAndResistanceRisesAfterNucleation) {
  KorhonenSolver s = make_solver();
  const auto j = paper_em_conditions::stress_density();
  const auto t = paper_em_conditions::chamber();
  while (!s.ever_nucleated() && s.elapsed().value() < hours(10.0).value()) {
    s.step(j, t, minutes(10.0));
  }
  ASSERT_TRUE(s.ever_nucleated());
  const double r_at_nuc = s.resistance(t).value();
  s.step(j, t, hours(2.0));
  EXPECT_GT(s.resistance(t).value(), r_at_nuc + 0.1);
  EXPECT_GT(s.void_at(WireEnd::kStart).total_m(), 0.0);
}

TEST(Korhonen, PassiveRecoveryIsNearlyFlat) {
  KorhonenSolver s = make_solver();
  const auto j = paper_em_conditions::stress_density();
  const auto t = paper_em_conditions::chamber();
  s.step(j, t, minutes(600.0));
  ASSERT_TRUE(s.ever_nucleated());
  const double r_peak = s.resistance(t).value();
  const double r0 = s.wire().resistance_at(to_kelvin(t)).value();
  s.step(AmpsPerM2{0.0}, t, minutes(120.0));
  const double healed = r_peak - s.resistance(t).value();
  // Passive recovery undoes only a small share of the wearout.
  EXPECT_LT(healed, 0.25 * (r_peak - r0));
}

TEST(Korhonen, ActiveRecoveryHealsTheVoid) {
  KorhonenSolver s = make_solver();
  const auto t = paper_em_conditions::chamber();
  s.step(paper_em_conditions::stress_density(), t, minutes(600.0));
  const double r_peak = s.resistance(t).value();
  const double r0 = s.wire().resistance_at(to_kelvin(t)).value();
  s.step(paper_em_conditions::reverse_density(), t, minutes(120.0));
  const double frac =
      (r_peak - s.resistance(t).value()) / (r_peak - r0);
  EXPECT_GT(frac, 0.5);
}

TEST(Korhonen, BreaksWhenVoidReachesCriticalLength) {
  KorhonenSolver s = make_solver();
  const auto j = paper_em_conditions::stress_density();
  const auto t = paper_em_conditions::chamber();
  while (!s.broken() && s.elapsed().value() < hours(40.0).value()) {
    s.step(j, t, minutes(30.0));
  }
  EXPECT_TRUE(s.broken());
  EXPECT_GE(s.resistance(t).value(), 1e6);
  // Stepping a broken wire is a no-op apart from time accounting.
  const double elapsed = s.elapsed().value();
  s.step(j, t, hours(1.0));
  EXPECT_TRUE(s.broken());
  EXPECT_GT(s.elapsed().value(), elapsed);
}

TEST(Korhonen, ColdWireAgesVastlySlower) {
  KorhonenSolver hot = make_solver();
  KorhonenSolver cold = make_solver();
  const auto j = paper_em_conditions::stress_density();
  hot.step(j, Celsius{230.0}, hours(2.0));
  cold.step(j, Celsius{105.0}, hours(2.0));
  EXPECT_GT(hot.stress_at(WireEnd::kStart).value(),
            20.0 * cold.stress_at(WireEnd::kStart).value());
}

TEST(Korhonen, NegativeDtRejected) {
  KorhonenSolver s = make_solver();
  EXPECT_THROW(s.step(AmpsPerM2{0.0}, Celsius{230.0}, Seconds{-1.0}), Error);
}

TEST(Korhonen, NonFiniteDtRejected) {
  // An infinite step would substep until the wire broke, or forever at
  // zero current.
  KorhonenSolver s = make_solver();
  const auto j = paper_em_conditions::stress_density();
  EXPECT_THROW(s.step(j, Celsius{230.0}, Seconds{HUGE_VAL}), Error);
  EXPECT_THROW(s.step(j, Celsius{230.0}, Seconds{std::nan("")}), Error);
  EXPECT_EQ(s.elapsed().value(), 0.0);
  EXPECT_FALSE(s.broken());
}

TEST(Korhonen, GridValidation) {
  // The 0.2 um first cell must be under a quarter of the wire.
  WireGeometry stub = paper_wire();
  stub.length = Meters{0.8e-6};
  EXPECT_THROW((KorhonenSolver{stub, paper_calibrated_em_material()}),
               Error);
}

}  // namespace
}  // namespace dh::em
