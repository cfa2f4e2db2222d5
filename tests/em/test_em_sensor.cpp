#include "em/em_sensor.hpp"

#include <gtest/gtest.h>

#include <cmath>


namespace dh::em {
namespace {

TEST(EmSensor, MeasurementNearTruth) {
  EmSensor s{Rng{1}};
  for (int i = 0; i < 100; ++i) {
    const double r = s.measure(Ohms{65.26}).value();
    EXPECT_NEAR(r, 65.26, 0.3);
  }
}

TEST(EmSensor, QuantizedToResolution) {
  // The meter resolves 0.01 Ohm; noise comes before quantization.
  EmSensor s{Rng{2}};
  for (int i = 0; i < 20; ++i) {
    const double steps = s.measure(Ohms{35.7613}).value() / 0.01;
    EXPECT_NEAR(steps, std::round(steps), 1e-6);
  }
}

TEST(EmSensor, DeterministicForSeed) {
  EmSensor a{Rng{42}};
  EmSensor b{Rng{42}};
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.measure(Ohms{50.0}).value(),
                     b.measure(Ohms{50.0}).value());
  }
}

TEST(EmSensor, PaperConditionsConstants) {
  EXPECT_DOUBLE_EQ(paper_em_conditions::chamber().value(), 230.0);
  EXPECT_DOUBLE_EQ(paper_em_conditions::stress_density().value(), 7.96e10);
  EXPECT_DOUBLE_EQ(paper_em_conditions::reverse_density().value(), -7.96e10);
}

}  // namespace
}  // namespace dh::em
