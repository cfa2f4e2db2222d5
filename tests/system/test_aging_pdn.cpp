#include "pdn/aging_pdn.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
#include "em/material.hpp"

namespace dh::pdn {
namespace {

/// A small, deliberately hot/overloaded PDN so EM shows up in test time.
AgingPdn make_hot_pdn() {
  PdnParams p;
  p.rows = 4;
  p.cols = 4;
  return AgingPdn{p, em::paper_calibrated_em_material()};
}

std::vector<double> heavy_loads(const AgingPdn& pdn, double amps) {
  return std::vector<double>(pdn.grid().node_count(), amps);
}

TEST(AgingPdn, FreshGridHasNoVoids) {
  AgingPdn pdn = make_hot_pdn();
  pdn.step(heavy_loads(pdn, 0.0), Celsius{105.0}, hours(1.0));
  const auto st = pdn.stats();
  EXPECT_EQ(st.nucleated_segments, 0u);
  EXPECT_EQ(st.broken_segments, 0u);
  EXPECT_FALSE(pdn.failed());
}

TEST(AgingPdn, LightLoadIsBlechImmortal) {
  AgingPdn pdn = make_hot_pdn();
  pdn.step(heavy_loads(pdn, 0.001), Celsius{85.0}, hours(1.0));
  const auto st = pdn.stats();
  // Low current density: everything under the Blech threshold.
  EXPECT_GT(st.immortal_segments, pdn.grid().segment_count() / 2);
}

TEST(AgingPdn, SustainedOverloadNucleatesVoids) {
  AgingPdn pdn = make_hot_pdn();
  const auto loads = heavy_loads(pdn, 0.08);
  // Run hot and hard, long enough to pass nucleation on the worst
  // segments (accelerated conditions, like the paper's oven tests).
  for (int step = 0; step < 40; ++step) {
    pdn.step(loads, Celsius{230.0}, hours(1.0));
    if (pdn.stats().nucleated_segments > 0) break;
  }
  EXPECT_GT(pdn.stats().nucleated_segments, 0u);
  EXPECT_GT(pdn.stats().max_void_len_m, 0.0);
}

TEST(AgingPdn, EmRecoveryModeHealsVoids) {
  AgingPdn stressed = make_hot_pdn();
  AgingPdn recovered = make_hot_pdn();
  // Moderate load: the pad-adjacent segments nucleate within a few hours
  // at 230 C but nothing breaks within the test window.
  const auto loads = heavy_loads(stressed, 0.004);
  for (int step = 0; step < 4; ++step) {
    stressed.step(loads, Celsius{230.0}, hours(1.0));
    recovered.step(loads, Celsius{230.0}, hours(1.0));
  }
  ASSERT_GT(recovered.stats().nucleated_segments, 0u);
  ASSERT_EQ(recovered.stats().broken_segments, 0u);
  const double before = recovered.stats().max_void_len_m;
  ASSERT_GT(before, 0.0);
  // Continue: one keeps stressing, the other enters EM recovery mode.
  for (int step = 0; step < 3; ++step) {
    stressed.step(loads, Celsius{230.0}, hours(1.0), false);
    recovered.step(loads, Celsius{230.0}, hours(1.0), true);
  }
  EXPECT_LT(recovered.stats().max_void_len_m, before);
  EXPECT_LT(recovered.stats().max_void_len_m,
            stressed.stats().max_void_len_m);
}

TEST(AgingPdn, WorstDropGrowsAsGridAges) {
  AgingPdn pdn = make_hot_pdn();
  const auto loads = heavy_loads(pdn, 0.08);
  pdn.step(loads, Celsius{230.0}, hours(1.0));
  const double drop_fresh = pdn.stats().worst_drop_v;
  for (int step = 0; step < 45; ++step) {
    pdn.step(loads, Celsius{230.0}, hours(1.0));
  }
  EXPECT_GE(pdn.stats().worst_drop_v, drop_fresh);
}

TEST(AgingPdn, FailureFlagOnExcessiveDrop) {
  AgingPdn pdn = make_hot_pdn();
  // Crush the grid with current so the IR-drop test trips even fresh.
  pdn.step(heavy_loads(pdn, 0.6), Celsius{105.0}, hours(1.0));
  EXPECT_TRUE(pdn.failed(0.05));
}

TEST(AgingPdn, ElapsedAccumulates) {
  AgingPdn pdn = make_hot_pdn();
  pdn.step(heavy_loads(pdn, 0.0), Celsius{85.0}, hours(2.0));
  pdn.step(heavy_loads(pdn, 0.0), Celsius{85.0}, hours(3.0));
  EXPECT_NEAR(in_hours(pdn.elapsed()), 5.0, 1e-9);
}

/// AgingPdn::step without the shared factor set: the same solve and
/// Blech filter, then every mortal segment through the per-call
/// CompactEm::step(j, T, dt).
class PerSegmentReference {
 public:
  explicit PerSegmentReference(const AgingPdn& like)
      : grid_(like.grid().params()),
        r_(like.grid().segment_count(), 0.0) {
    for (std::size_t s = 0; s < grid_.segment_count(); ++s) {
      em_.emplace_back(like.segment_em(s).params());
    }
  }

  void step(std::span<const double> loads, Celsius t, Seconds dt,
            bool reverse) {
    for (std::size_t s = 0; s < em_.size(); ++s) {
      r_[s] = em_[s].resistance(t).value();
    }
    const PdnSolution sol = grid_.solve(loads, r_);
    const em::WireGeometry& wire = grid_.params().segment_wire;
    const double blech_crit = em_.front().params().material.blech_threshold(
        wire.resistivity_at(to_kelvin(t)));
    for (std::size_t s = 0; s < em_.size(); ++s) {
      const double current =
          reverse ? -sol.segment_current[s] : sol.segment_current[s];
      const AmpsPerM2 j = grid_.current_density(current);
      const bool immortal =
          std::abs(j.value()) * wire.length.value() < blech_crit;
      if (immortal && !em_[s].void_open()) continue;
      em_[s].step(j, t, dt);
    }
  }

  [[nodiscard]] const em::CompactEm& segment(std::size_t s) const {
    return em_[s];
  }

 private:
  PdnGrid grid_;
  std::vector<em::CompactEm> em_;
  std::vector<double> r_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint8_t> state_bytes(const em::CompactEm& em) {
  ckpt::Serializer s;
  em.save_state(s);
  return s.buffer();
}

::testing::AssertionResult same_segment_bits(const AgingPdn& pdn,
                                             const PerSegmentReference& ref,
                                             int step) {
  for (std::size_t s = 0; s < pdn.grid().segment_count(); ++s) {
    const em::CompactEm& a = pdn.segment_em(s);
    const em::CompactEm& b = ref.segment(s);
    // The snapshot holds the pools, the void phase and polarity, and the
    // mobile and fixed void lengths, each double bit for bit.
    if (bits(a.end_stress().value()) != bits(b.end_stress().value()) ||
        bits(a.void_length().value()) != bits(b.void_length().value()) ||
        bits(a.fixed_void_length().value()) !=
            bits(b.fixed_void_length().value()) ||
        a.broken() != b.broken() || state_bytes(a) != state_bytes(b)) {
      return ::testing::AssertionFailure()
             << "segment " << s << " differs after step " << step;
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<std::uint8_t> state_bytes(const AgingPdn& pdn) {
  ckpt::Serializer s;
  pdn.save_state(s);
  return s.buffer();
}

TEST(AgingPdnFactors, MatchesPerSegmentStepsAtChangingTemperature) {
  // Fig. 12-like: a 4x4 grid whose temperature moves every 6 h quantum,
  // with the grid reversed on a 1-in-5 duty and one zero-length quantum.
  AgingPdn pdn = make_hot_pdn();
  PerSegmentReference ref{pdn};
  const auto loads = heavy_loads(pdn, 0.006);
  for (int k = 0; k < 120; ++k) {
    const Celsius t{200.0 + 30.0 * std::sin(0.7 * k)};
    const Seconds dt = k == 7 ? Seconds{0.0} : hours(6.0);
    const bool reverse = k % 5 == 4;
    pdn.step(loads, t, dt, reverse);
    ref.step(loads, t, dt, reverse);
    ASSERT_TRUE(same_segment_bits(pdn, ref, k));
  }
  // The run reached the void phase, so both halves of the step ran.
  EXPECT_GT(pdn.stats().nucleated_segments, 0u);
}

TEST(AgingPdnFactors, MatchesPerSegmentStepsThroughHealingAndBreakage) {
  // Fig. 11-like: the 8x8 mesh at 230 C under 3 mA per node, protected
  // (36 min forward, 24 min reversed) for 48 h, then unprotected until a
  // segment breaks.
  PdnParams p;
  p.rows = 8;
  p.cols = 8;
  AgingPdn pdn{p, em::paper_calibrated_em_material()};
  PerSegmentReference ref{pdn};
  const auto loads = heavy_loads(pdn, 0.003);
  const Celsius t{230.0};
  bool healed = false;
  int step = 0;
  for (int h = 0; h < 400 && pdn.stats().broken_segments == 0; ++h) {
    const bool protect = h < 48;
    for (const auto& [dt, reverse] :
         {std::pair{minutes(36.0), false}, std::pair{minutes(24.0), protect},
          std::pair{Seconds{0.0}, protect}}) {
      const double before = pdn.stats().max_void_len_m;
      pdn.step(loads, t, dt, reverse);
      ref.step(loads, t, dt, reverse);
      ASSERT_TRUE(same_segment_bits(pdn, ref, step++));
      if (pdn.stats().max_void_len_m < before) healed = true;
    }
  }
  EXPECT_TRUE(healed);
  EXPECT_GT(pdn.stats().broken_segments, 0u);
}

TEST(AgingPdnFactors, RejectedDtChangesNothing) {
  AgingPdn pdn = make_hot_pdn();
  const auto loads = heavy_loads(pdn, 0.004);
  for (int k = 0; k < 4; ++k) pdn.step(loads, Celsius{230.0}, hours(1.0));
  ASSERT_GT(pdn.stats().nucleated_segments, 0u);
  const std::vector<std::uint8_t> before = state_bytes(pdn);
  for (const double dt : {HUGE_VAL, std::nan(""), -1.0}) {
    EXPECT_THROW(pdn.step(loads, Celsius{230.0}, Seconds{dt}), Error);
    EXPECT_EQ(state_bytes(pdn), before);
  }
}

}  // namespace
}  // namespace dh::pdn
