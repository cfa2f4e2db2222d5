#include "em/korhonen.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

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

TEST(Korhonen, NonFiniteCurrentRejected) {
  // A NaN or infinite current used to turn the stress field to NaN, after
  // which the wire could never nucleate or break.
  KorhonenSolver s = make_solver();
  const auto t = paper_em_conditions::chamber();
  s.step(paper_em_conditions::stress_density(), t, minutes(10.0));
  const double start = s.stress_at(WireEnd::kStart).value();
  const double integral = s.stress_integral();
  for (const double j : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(s.step(AmpsPerM2{j}, t, minutes(10.0)), Error) << j;
    EXPECT_THROW(s.step(AmpsPerM2{j}, t, Seconds{0.0}), Error) << j;
  }
  EXPECT_EQ(s.elapsed().value(), 600.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.stress_at(WireEnd::kStart).value()),
            std::bit_cast<std::uint64_t>(start));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.stress_integral()),
            std::bit_cast<std::uint64_t>(integral));
}

/// The state a step script checks, as bit patterns.
struct PinnedState {
  bool open_start;
  bool open_end;
  std::uint64_t stress_start;
  std::uint64_t stress_end;
  std::uint64_t mobile_start;
  std::uint64_t fixed_start;
  std::uint64_t mobile_end;
  std::uint64_t fixed_end;
  std::uint64_t integral;
};

void expect_state(const KorhonenSolver& s, const PinnedState& want,
                  const char* stage) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const VoidState& a = s.void_at(WireEnd::kStart);
  const VoidState& b = s.void_at(WireEnd::kEnd);
  EXPECT_EQ(a.open, want.open_start) << stage;
  EXPECT_EQ(b.open, want.open_end) << stage;
  EXPECT_EQ(bits(s.stress_at(WireEnd::kStart).value()), want.stress_start)
      << stage;
  EXPECT_EQ(bits(s.stress_at(WireEnd::kEnd).value()), want.stress_end)
      << stage;
  EXPECT_EQ(bits(a.mobile_len_m), want.mobile_start) << stage;
  EXPECT_EQ(bits(a.fixed_len_m), want.fixed_start) << stage;
  EXPECT_EQ(bits(b.mobile_len_m), want.mobile_end) << stage;
  EXPECT_EQ(bits(b.fixed_len_m), want.fixed_end) << stage;
  EXPECT_EQ(bits(s.stress_integral()), want.integral) << stage;
}

TEST(Korhonen, StepScriptMatchesPinnedBits) {
  // A script through every condition the backward-Euler matrix and the
  // wind term depend on: constant stress, a temperature change, a current
  // reversal, nucleation and healing at the cathode (a Dirichlet end
  // appearing and going), a step whose last substep is short, and a zero
  // step. The bit patterns were recorded from a solver that assembled and
  // factored its matrix on every substep; reusing the factor must not
  // change one bit.
  KorhonenSolver s = make_solver();
  const auto j = paper_em_conditions::stress_density();
  const auto jr = paper_em_conditions::reverse_density();
  const auto t = paper_em_conditions::chamber();
  s.step(j, t, hours(1.0));
  expect_state(s,
               {false, false, 0x41a3d63952806cfcULL, 0xc1a3d63952806d03ULL,
                0, 0, 0, 0, 0xbd82c80000000000ULL},
               "constant stress");
  s.step(j, Celsius{200.0}, hours(1.0));
  expect_state(s,
               {false, false, 0x41a5d0fabd57ba56ULL, 0xc1a5d0fabd57ba5bULL,
                0, 0, 0, 0, 0xbd86400000000000ULL},
               "cooler");
  s.step(jr, t, hours(1.0));
  expect_state(s,
               {false, false, 0xc193a75101e7109aULL, 0x4193a75101e71074ULL,
                0, 0, 0, 0, 0xbda0c50000000000ULL},
               "reversed");
  int steps = 0;
  while (!s.void_at(WireEnd::kStart).open && steps++ < 100) {
    s.step(j, t, minutes(10.0));
  }
  EXPECT_EQ(steps, 34);
  expect_state(s,
               {true, false, 0, 0xc1b7f99a10eb6428ULL, 0x3e225c5384587578ULL,
                0x3d92cdd09c4e77d8ULL, 0, 0, 0xc07e7a696acfa9b9ULL},
               "nucleated");
  s.step(j, t, hours(2.0));
  expect_state(s,
               {true, false, 0, 0xc1bbd578c741adc4ULL, 0x3e4fdc4e917c91afULL,
                0x3e0cee15036a11c0ULL, 0, 0, 0xc0a965adad6e3ba7ULL},
               "grown");
  steps = 0;
  while (s.void_at(WireEnd::kStart).open && steps++ < 100) {
    s.step(jr, t, minutes(10.0));
  }
  EXPECT_EQ(steps, 13);
  const PinnedState healed{false,
                           false,
                           0xc1731d771da09c55ULL,
                           0xc181f11a50f7c781ULL,
                           0,
                           0x3e1a085b1f6f1879ULL,
                           0,
                           0,
                           0xc0a1670ba186c49eULL};
  expect_state(s, healed, "healed");
  const PinnedState short_substep{false,
                                  false,
                                  0x41980389ad5987d3ULL,
                                  0xc1a68b0f1a9e358bULL,
                                  0,
                                  0x3e1a085b1f6f1879ULL,
                                  0,
                                  0,
                                  0xc0a1670ba186c4adULL};
  s.step(j, t, Seconds{1000.0});  // 33 substeps of 30 s and one of 10 s
  expect_state(s, short_substep, "short last substep");
  s.step(j, t, Seconds{0.0});
  expect_state(s, short_substep, "zero step");
  s.step(j, t, Seconds{1000.0});
  expect_state(s,
               {false, false, 0x41a12aa5067d36c8ULL, 0xc1acab5163133137ULL, 0,
                0x3e1a085b1f6f1879ULL, 0, 0, 0xc0a1670ba186c4bcULL},
               "after the short substep");
  EXPECT_EQ(s.elapsed().value(), 48200.0);
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
