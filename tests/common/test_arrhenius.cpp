#include "common/arrhenius.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace dh {
namespace {

TEST(Arrhenius, BoltzmannFactorBasics) {
  // exp(-Ea/kT) at kT == Ea is 1/e.
  const Kelvin t{1.0 / constants::kBoltzmannEv};
  EXPECT_NEAR(boltzmann_factor(ElectronVolts{1.0}, t), std::exp(-1.0), 1e-12);
  // Zero activation energy: no barrier.
  EXPECT_DOUBLE_EQ(boltzmann_factor(ElectronVolts{0.0}, Kelvin{300.0}), 1.0);
}

TEST(Arrhenius, AccelerationIsOneAtReference) {
  EXPECT_DOUBLE_EQ(
      arrhenius_acceleration(ElectronVolts{0.9}, Kelvin{350.0}, Kelvin{350.0}),
      1.0);
}

TEST(Arrhenius, HotterAccelerates) {
  const double af = arrhenius_acceleration(ElectronVolts{0.7}, Kelvin{383.15},
                                           Kelvin{293.15});
  EXPECT_GT(af, 1.0);
  // And the inverse direction is the reciprocal.
  const double af_inv = arrhenius_acceleration(
      ElectronVolts{0.7}, Kelvin{293.15}, Kelvin{383.15});
  EXPECT_NEAR(af * af_inv, 1.0, 1e-12);
}

TEST(Arrhenius, HigherBarrierIsMoreSensitive) {
  const double low = arrhenius_acceleration(ElectronVolts{0.5}, Kelvin{400.0},
                                            Kelvin{300.0});
  const double high = arrhenius_acceleration(ElectronVolts{1.2}, Kelvin{400.0},
                                             Kelvin{300.0});
  EXPECT_GT(high, low);
}

TEST(Arrhenius, ThermalEnergyAtRoomTemperature) {
  EXPECT_NEAR(thermal_energy_ev(Kelvin{293.15}), 0.02526, 1e-4);
}

TEST(Arrhenius, RejectsNonPositiveTemperature) {
  EXPECT_THROW((void)boltzmann_factor(ElectronVolts{1.0}, Kelvin{0.0}),
               Error);
  EXPECT_THROW((void)thermal_energy_ev(Kelvin{-1.0}), Error);
  EXPECT_THROW((void)arrhenius_acceleration(ElectronVolts{1.0},
                                            Kelvin{300.0}, Kelvin{0.0}),
               Error);
}

/// Property sweep: acceleration factors compose multiplicatively across a
/// temperature ladder.
class ArrheniusComposition : public ::testing::TestWithParam<double> {};

TEST_P(ArrheniusComposition, ComposesAcrossIntermediateTemperature) {
  const ElectronVolts ea{GetParam()};
  const Kelvin t1{300.0}, t2{350.0}, t3{420.0};
  const double direct = arrhenius_acceleration(ea, t3, t1);
  const double composed = arrhenius_acceleration(ea, t3, t2) *
                          arrhenius_acceleration(ea, t2, t1);
  EXPECT_NEAR(direct, composed, 1e-9 * direct);
}

INSTANTIATE_TEST_SUITE_P(ActivationEnergies, ArrheniusComposition,
                         ::testing::Values(0.3, 0.55, 0.9, 1.1, 1.5));

}  // namespace
}  // namespace dh
