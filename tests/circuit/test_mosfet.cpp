#include "circuit/mosfet.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"

namespace dh::circuit {
namespace {

MosfetParams nmos() {
  MosfetParams p;
  p.polarity = MosPolarity::kNmos;
  return p;
}

MosfetParams pmos() {
  MosfetParams p = nmos();
  p.polarity = MosPolarity::kPmos;
  return p;
}

TEST(Mosfet, OffWhenGateLow) {
  const MosfetEval e = evaluate_mosfet(nmos(), 0.0, 1.0, 0.0);
  EXPECT_LT(e.ids, 1e-7);
  EXPECT_GT(e.ids, 0.0);  // subthreshold leakage, not hard zero
}

TEST(Mosfet, SaturationFollowsSquareLaw) {
  const MosfetParams p = nmos();
  const double i1 = evaluate_mosfet(p, 0.3 + 0.4, 1.2, 0.0).ids;
  const double i2 = evaluate_mosfet(p, 0.3 + 0.8, 1.6, 0.0).ids;
  // Doubling overdrive roughly quadruples saturation current (CLM adds a
  // few percent).
  EXPECT_NEAR(i2 / i1, 4.0, 0.5);
}

TEST(Mosfet, TriodeCurrentLowerThanSaturation) {
  const MosfetParams p = nmos();
  const double i_sat = evaluate_mosfet(p, 1.0, 1.0, 0.0).ids;
  const double i_tri = evaluate_mosfet(p, 1.0, 0.05, 0.0).ids;
  EXPECT_LT(i_tri, i_sat);
  EXPECT_GT(i_tri, 0.0);
}

TEST(Mosfet, ZeroVdsZeroCurrent) {
  const MosfetEval e = evaluate_mosfet(nmos(), 1.0, 0.5, 0.5);
  EXPECT_NEAR(e.ids, 0.0, 1e-15);
}

TEST(Mosfet, SourceDrainSwapAntisymmetric) {
  const MosfetParams p = nmos();
  const double fwd = evaluate_mosfet(p, 1.0, 0.8, 0.2).ids;
  // Swap D and S with the gate referenced identically: the channel is
  // symmetric, so the current reverses around the same magnitude.
  const double rev = evaluate_mosfet(p, 1.0, 0.2, 0.8).ids;
  EXPECT_NEAR(fwd, -rev, 1e-9 * std::abs(fwd) + 1e-15);
}

TEST(Mosfet, PmosMirrorsNmos) {
  const double i_n = evaluate_mosfet(nmos(), 1.0, 1.0, 0.0).ids;
  // PMOS with all voltages mirrored conducts the same magnitude the
  // other way.
  const double i_p = evaluate_mosfet(pmos(), -1.0, -1.0, 0.0).ids;
  EXPECT_NEAR(i_p, -i_n, 1e-12 + 1e-9 * std::abs(i_n));
}

TEST(Mosfet, PmosConductsWithSourceHigh) {
  // Classic header: source at VDD, gate at 0 -> strongly on, current
  // flows source->drain (ids negative by our drain->source convention).
  const MosfetEval e = evaluate_mosfet(pmos(), 0.0, 0.5, 1.0);
  EXPECT_LT(e.ids, -1e-5);
}

TEST(Mosfet, SubthresholdSlopeIsExponential) {
  const MosfetParams p = nmos();
  const double i1 = evaluate_mosfet(p, 0.10, 1.0, 0.0).ids;
  const double i2 = evaluate_mosfet(p, 0.16, 1.0, 0.0).ids;
  // kT/q at the model's 27 C and its slope factor n = 1.4.
  const double vt = constants::kBoltzmannEv * (27.0 + kCelsiusOffset);
  const double expected_ratio = std::exp(0.06 / (1.4 * vt));
  EXPECT_NEAR(i2 / i1, expected_ratio, 0.25 * expected_ratio);
}

/// Property: analytic terminal derivatives match finite differences in
/// every operating region.
struct OpPoint {
  double vg, vd, vs;
};

class MosfetDerivatives : public ::testing::TestWithParam<OpPoint> {};

TEST_P(MosfetDerivatives, MatchFiniteDifferences) {
  const auto [vg, vd, vs] = GetParam();
  for (const auto& p : {nmos(), pmos()}) {
    const double h = 1e-6;
    const MosfetEval e = evaluate_mosfet(p, vg, vd, vs);
    const double d_vg = (evaluate_mosfet(p, vg + h, vd, vs).ids -
                         evaluate_mosfet(p, vg - h, vd, vs).ids) /
                        (2.0 * h);
    const double d_vd = (evaluate_mosfet(p, vg, vd + h, vs).ids -
                         evaluate_mosfet(p, vg, vd - h, vs).ids) /
                        (2.0 * h);
    const double d_vs = (evaluate_mosfet(p, vg, vd, vs + h).ids -
                         evaluate_mosfet(p, vg, vd, vs - h).ids) /
                        (2.0 * h);
    const double scale = std::abs(e.d_vg) + std::abs(e.d_vd) +
                         std::abs(e.d_vs) + 1e-9;
    EXPECT_NEAR(e.d_vg, d_vg, 1e-3 * scale);
    EXPECT_NEAR(e.d_vd, d_vd, 1e-3 * scale);
    EXPECT_NEAR(e.d_vs, d_vs, 1e-3 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OperatingRegions, MosfetDerivatives,
    ::testing::Values(OpPoint{1.0, 1.0, 0.0},    // saturation
                      OpPoint{1.0, 0.05, 0.0},   // triode
                      OpPoint{0.2, 1.0, 0.0},    // subthreshold
                      OpPoint{1.0, 0.2, 0.8},    // reversed vds
                      OpPoint{0.5, 0.5, 0.5},    // zero vds
                      OpPoint{-0.3, 0.7, 1.0},   // pmos-style biasing
                      OpPoint{0.9, 1.3, 0.4}));  // offset source

}  // namespace
}  // namespace dh::circuit
