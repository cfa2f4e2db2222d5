#include "sram/sram_array.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/math/interp.hpp"
#include "common/rng.hpp"

namespace dh::sram {
namespace {

TEST(SramSnm, FreshCellInPhysicalRange) {
  const SramCell cell;
  const double snm = cell.fresh_snm().value();
  // A healthy 6T cell at 0.9 V: SNM of a few hundred mV, below VDD/2.
  EXPECT_GT(snm, 0.15);
  EXPECT_LT(snm, 0.45);
}

TEST(SramSnm, IdealStepInvertersGiveHalfVdd) {
  // Analytic sanity check of the largest-square algorithm.
  const auto vin = math::linspace(0.0, 1.0, 101);
  std::vector<double> step;
  for (const double v : vin) step.push_back(v < 0.5 ? 1.0 : 0.0);
  EXPECT_NEAR(snm_from_vtcs(vin, step, step), 0.5, 0.02);
}

TEST(SramSnm, SymmetricShiftBarelyMoves) {
  // Equal Vth shifts on both pull-ups shift both VTCs together: the
  // butterfly stays symmetric and the SNM moves only mildly.
  const auto vin = math::linspace(0.0, 0.9, 41);  // 0 to VDD
  const auto fresh = inverter_vtc(Volts{0.0}, Volts{0.0}, vin);
  const auto aged = inverter_vtc(Volts{0.03}, Volts{0.0}, vin);
  const double snm_fresh = snm_from_vtcs(vin, fresh, fresh);
  const double snm_sym = snm_from_vtcs(vin, aged, aged);
  const double snm_asym = snm_from_vtcs(vin, aged, fresh);
  EXPECT_LT(std::abs(snm_sym - snm_fresh), 0.02);
  // Asymmetric aging is the killer.
  EXPECT_LT(snm_asym, snm_sym);
}

TEST(SramCellAging, StaticDataStressesOneSide) {
  SramCell cell;
  for (int d = 0; d < 30; ++d) {
    cell.step(CellMode::kHold, true, Celsius{95.0}, hours(24.0));
  }
  EXPECT_GT(cell.left_pmos_dvth().value(),
            20.0 * (cell.right_pmos_dvth().value() + 1e-9));
}

TEST(SramCellAging, AgingReducesSnm) {
  SramCell cell;
  const double fresh = cell.fresh_snm().value();
  for (int d = 0; d < 60; ++d) {
    cell.step(CellMode::kHold, true, Celsius{95.0}, hours(24.0));
  }
  EXPECT_LT(cell.hold_snm().value(), fresh - 0.005);
}

TEST(SramCellAging, RecoveryBoostRestoresSnm) {
  SramCell cell;
  for (int d = 0; d < 60; ++d) {
    cell.step(CellMode::kHold, true, Celsius{95.0}, hours(24.0));
  }
  const double aged = cell.hold_snm().value();
  for (int d = 0; d < 10; ++d) {
    cell.step(CellMode::kRecoveryBoost, true, Celsius{95.0}, hours(24.0));
  }
  EXPECT_GT(cell.hold_snm().value(), aged);
}

TEST(SramArrayAging, FlippingDataBalancesStress) {
  SramArrayParams flip;
  flip.cells = 16;
  flip.pattern = DataPattern::kFlipping;
  SramArrayParams fixed = flip;
  fixed.pattern = DataPattern::kStatic;
  SramArray balanced{flip};
  SramArray skewed{fixed};
  for (int d = 0; d < 40; ++d) {
    balanced.step(Celsius{95.0}, hours(24.0));
    skewed.step(Celsius{95.0}, hours(24.0));
  }
  // Static data concentrates all stress on one side of each cell.
  EXPECT_LT(balanced.worst_cell_health().worst_snm.value() * -1.0,
            0.0);  // well-defined
  EXPECT_GT(balanced.worst_cell_health().worst_snm.value(),
            skewed.worst_cell_health().worst_snm.value());
}

TEST(SramArrayAging, BoostScheduleBeatsFlipping) {
  SramArrayParams p;
  p.cells = 16;
  p.pattern = DataPattern::kStatic;
  SramArray boosted{p};
  SramArray unprotected{p};
  for (int d = 0; d < 40; ++d) {
    boosted.step(Celsius{95.0}, hours(24.0), /*boost_fraction=*/0.15);
    unprotected.step(Celsius{95.0}, hours(24.0), 0.0);
  }
  EXPECT_GT(boosted.worst_cell_health().worst_snm.value(),
            unprotected.worst_cell_health().worst_snm.value());
  EXPECT_LT(boosted.worst_cell_health().worst_pmos_dvth.value(),
            unprotected.worst_cell_health().worst_pmos_dvth.value());
}

TEST(SramArrayAging, ScanAndProxyAgree) {
  SramArrayParams p;
  p.cells = 8;
  SramArray arr{p};
  for (int d = 0; d < 20; ++d) arr.step(Celsius{95.0}, hours(24.0));
  const auto full = arr.scan_health();
  const auto proxy = arr.worst_cell_health();
  EXPECT_NEAR(full.worst_snm.value(), proxy.worst_snm.value(), 0.01);
  EXPECT_GE(full.mean_snm.value(), full.worst_snm.value());
}

std::uint64_t bits_of(Volts v) {
  return std::bit_cast<std::uint64_t>(v.value());
}

TEST(SramArrayAging, StepMatchesPerCellStepBitForBit) {
  // SramArray::step against cell-by-cell SramCell::step, with the bits
  // drawn from the array's seed in the array's order. 64 cells fill two
  // rounds of the batch's lockstep lanes; 33 leave a partial one.
  for (const std::size_t n : {std::size_t{64}, std::size_t{33}}) {
    for (const DataPattern pattern :
         {DataPattern::kStatic, DataPattern::kFlipping}) {
      for (const double boost_fraction : {0.0, 0.1, 1.0}) {
        SramArrayParams params;
        params.cells = n;
        params.pattern = pattern;
        SramArray arr{params};
        Rng rng{params.seed};
        std::vector<bool> bits(n);
        for (std::size_t i = 0; i < n; ++i) bits[i] = rng.bernoulli(0.5);
        std::vector<SramCell> ref(n);
        for (int step = 0; step < 12; ++step) {
          const Seconds dt = step % 3 == 2 ? minutes(37.0) : hours(24.0);
          const Celsius t{85.0 + 2.0 * step};
          arr.step(t, dt, boost_fraction);
          if (pattern == DataPattern::kFlipping) {
            for (std::size_t i = 0; i < n; ++i) bits[i] = rng.bernoulli(0.5);
          }
          const Seconds hold{dt.value() * (1.0 - boost_fraction)};
          const Seconds boost{dt.value() * boost_fraction};
          for (std::size_t i = 0; i < n; ++i) {
            if (hold.value() > 0.0) {
              ref[i].step(CellMode::kHold, bits[i], t, hold);
            }
            if (boost.value() > 0.0) {
              ref[i].step(CellMode::kRecoveryBoost, bits[i], t, boost);
            }
          }
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(bits_of(arr.cell(i).left_pmos_dvth()),
                      bits_of(ref[i].left_pmos_dvth()))
                << n << " cells, boost " << boost_fraction << ", step "
                << step << ", cell " << i;
            ASSERT_EQ(bits_of(arr.cell(i).right_pmos_dvth()),
                      bits_of(ref[i].right_pmos_dvth()))
                << n << " cells, boost " << boost_fraction << ", step "
                << step << ", cell " << i;
          }
        }
        if (boost_fraction < 1.0) {
          EXPECT_GT(arr.worst_cell_health().worst_pmos_dvth.value(), 0.0);
        }
      }
    }
  }
}

TEST(SramArrayAging, RejectsBadStepBeforeDrawingOrAging) {
  // A NaN or negative dt used to fail every interval's > 0 test and
  // return normally, after a flipping array had drawn new bits.
  SramArrayParams p;
  p.cells = 8;
  p.pattern = DataPattern::kFlipping;
  SramArray arr{p};
  SramArray twin{p};
  arr.step(Celsius{95.0}, hours(24.0));
  twin.step(Celsius{95.0}, hours(24.0));
  const struct {
    double t_c;
    double dt_s;
  } bad[] = {{95.0, std::numeric_limits<double>::quiet_NaN()},
             {95.0, -3600.0},
             {95.0, std::numeric_limits<double>::infinity()},
             {std::numeric_limits<double>::quiet_NaN(), 3600.0},
             {-300.0, 3600.0}};
  for (const auto& b : bad) {
    for (const double boost_fraction : {0.0, 0.5}) {
      EXPECT_THROW(
          arr.step(Celsius{b.t_c}, Seconds{b.dt_s}, boost_fraction), Error)
          << b.t_c << " C, dt " << b.dt_s;
    }
  }
  // Nothing moved and no bit was drawn: the next good step matches a
  // twin that never saw the bad ones.
  arr.step(Celsius{95.0}, hours(24.0));
  twin.step(Celsius{95.0}, hours(24.0));
  for (std::size_t i = 0; i < p.cells; ++i) {
    EXPECT_EQ(bits_of(arr.cell(i).left_pmos_dvth()),
              bits_of(twin.cell(i).left_pmos_dvth()));
    EXPECT_EQ(bits_of(arr.cell(i).right_pmos_dvth()),
              bits_of(twin.cell(i).right_pmos_dvth()));
  }
}

TEST(SramArray, Validation) {
  SramArrayParams p;
  p.cells = 0;
  EXPECT_THROW(SramArray{p}, Error);
  SramArray ok{SramArrayParams{}};
  EXPECT_THROW(ok.step(Celsius{95.0}, hours(1.0), 1.5), Error);
  EXPECT_THROW((void)ok.cell(9999), Error);
}

}  // namespace
}  // namespace dh::sram
