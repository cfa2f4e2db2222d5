#include "logic/logic_netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "device/compact_bti.hpp"

namespace dh::logic {
namespace {

TEST(LogicNetlist, SignalProbabilityPropagation) {
  LogicNetlist net;
  const GateId a = net.add_input("a", 0.8);
  const GateId b = net.add_input("b", 0.5);
  const GateId inv = net.add_gate(GateKind::kInv, a);
  const GateId nand = net.add_gate(GateKind::kNand2, a, b);
  const GateId nor = net.add_gate(GateKind::kNor2, a, b);
  const GateId andg = net.add_gate(GateKind::kAnd2, a, b);
  const GateId org = net.add_gate(GateKind::kOr2, a, b);
  const auto p = net.signal_probabilities();
  EXPECT_DOUBLE_EQ(p[a], 0.8);
  EXPECT_DOUBLE_EQ(p[inv], 0.2);
  EXPECT_DOUBLE_EQ(p[nand], 1.0 - 0.4);
  EXPECT_DOUBLE_EQ(p[nor], 0.2 * 0.5);
  EXPECT_DOUBLE_EQ(p[andg], 0.4);
  EXPECT_DOUBLE_EQ(p[org], 0.9);
}

TEST(LogicNetlist, BooleanEvaluation) {
  LogicNetlist net;
  const GateId a = net.add_input("a", 0.5);
  const GateId b = net.add_input("b", 0.5);
  const GateId nand = net.add_gate(GateKind::kNand2, a, b);
  const GateId inv = net.add_gate(GateKind::kInv, nand);
  const auto v = net.evaluate({true, true});
  EXPECT_FALSE(v[nand]);
  EXPECT_TRUE(v[inv]);
  const auto v2 = net.evaluate({true, false});
  EXPECT_TRUE(v2[nand]);
}

TEST(LogicNetlist, C17Truth) {
  // c17's first output (N22 = NAND(g1, g3)) for a known vector.
  LogicNetlist net = make_c17_plus();
  const auto v = net.evaluate({false, false, false, false, false});
  // g1 = NAND(0,0) = 1; g2 = NAND(0,0) = 1; g3 = NAND(0,1) = 1;
  // g5 = NAND(1,1) = 0.
  EXPECT_TRUE(v[5]);   // g1
  EXPECT_FALSE(v[9]);  // g5
}

TEST(LogicSta, FreshCriticalPathIsDepthTimesBaseDelay) {
  LogicNetlist net = make_c17_plus();
  // Depth: inputs -> g2 -> g3 -> g5 -> INV -> INV -> BUF -> OR = 7, at
  // 20 ps per fresh gate.
  EXPECT_NEAR(net.critical_path_delay().value(), 7.0 * 20e-12, 1e-15);
  EXPECT_NEAR(net.delay_degradation(), 0.0, 1e-12);
}

TEST(LogicSta, OperatingAgesTheCriticalPath) {
  LogicNetlist net = make_c17_plus();
  for (int d = 0; d < 180; ++d) {
    net.age(LogicMode::kOperating, Celsius{85.0}, hours(24.0));
  }
  EXPECT_GT(net.delay_degradation(), 0.005);
  EXPECT_GT(net.worst_dvth().value(), 0.005);
}

TEST(LogicSta, ActiveRecoveryHeals) {
  LogicNetlist net = make_c17_plus();
  for (int d = 0; d < 180; ++d) {
    net.age(LogicMode::kOperating, Celsius{85.0}, hours(24.0));
  }
  const double aged = net.delay_degradation();
  for (int d = 0; d < 30; ++d) {
    net.age(LogicMode::kActiveRecovery, Celsius{85.0}, hours(24.0));
  }
  EXPECT_LT(net.delay_degradation(), aged);
}

TEST(LogicSta, IdleVectorChoiceMatters) {
  // Two copies idle 50% of the time at different parked vectors; the
  // optimized vector must not age worse than the all-ones vector.
  LogicNetlist best_net = make_c17_plus();
  LogicNetlist bad_net = make_c17_plus();
  const auto best = best_net.best_idle_vector();
  const std::vector<bool> ones(best.size(), true);
  for (int d = 0; d < 120; ++d) {
    best_net.age(LogicMode::kOperating, Celsius{85.0}, hours(12.0));
    best_net.age(LogicMode::kIdleVector, Celsius{85.0}, hours(12.0), best);
    bad_net.age(LogicMode::kOperating, Celsius{85.0}, hours(12.0));
    bad_net.age(LogicMode::kIdleVector, Celsius{85.0}, hours(12.0), ones);
  }
  EXPECT_LE(best_net.worst_dvth().value(),
            bad_net.worst_dvth().value() + 1e-6);
}

TEST(LogicSta, ActiveRecoveryBeatsBestVector) {
  // The paper's step past input-vector control: active recovery heals
  // every device regardless of the vector.
  LogicNetlist vector_net = make_c17_plus();
  LogicNetlist active_net = make_c17_plus();
  const auto best = vector_net.best_idle_vector();
  for (int d = 0; d < 120; ++d) {
    vector_net.age(LogicMode::kOperating, Celsius{85.0}, hours(12.0));
    vector_net.age(LogicMode::kIdleVector, Celsius{85.0}, hours(12.0),
                   best);
    active_net.age(LogicMode::kOperating, Celsius{85.0}, hours(12.0));
    active_net.age(LogicMode::kActiveRecovery, Celsius{85.0}, hours(12.0));
  }
  EXPECT_LT(active_net.delay_degradation(),
            vector_net.delay_degradation());
}

/// Per-device reference for LogicNetlist::age: every gate's two networks
/// stepped one interval at a time with CompactBti::apply, in the order
/// each network sees them. The netlist must list its inputs first. The
/// biases and the delay law mirror logic_netlist.cpp.
class DeviceReference {
 public:
  explicit DeviceReference(const LogicNetlist& net)
      : first_gate_(net.input_count()),
        pull_up_(net.signal_probabilities().size()),
        pull_down_(pull_up_.size()) {}

  void age(const LogicNetlist& net, LogicMode mode, Celsius t, Seconds dt,
           const std::vector<bool>& idle_vector) {
    const device::BtiCondition stress{Volts{0.9}, t};
    const device::BtiCondition rest{Volts{0.0}, t};
    const device::BtiCondition heal{Volts{-0.3}, t};
    const std::vector<double> p = net.signal_probabilities();
    const std::vector<bool> v =
        mode == LogicMode::kIdleVector ? net.evaluate(idle_vector)
                                       : std::vector<bool>(p.size());
    for (std::size_t g = first_gate_; g < p.size(); ++g) {
      device::CompactBti& up = pull_up_[g];
      device::CompactBti& down = pull_down_[g];
      switch (mode) {
        case LogicMode::kOperating: {
          const Seconds high{dt.value() * p[g]};
          const Seconds low{dt.value() * (1.0 - p[g])};
          if (high.value() > 0.0) up.apply(stress, high);
          if (low.value() > 0.0) up.apply(rest, low);
          if (low.value() > 0.0) down.apply(stress, low);
          if (high.value() > 0.0) down.apply(rest, high);
          break;
        }
        case LogicMode::kIdleVector:
          up.apply(v[g] ? stress : rest, dt);
          down.apply(v[g] ? rest : stress, dt);
          break;
        case LogicMode::kActiveRecovery:
          up.apply(heal, dt);
          down.apply(heal, dt);
          break;
      }
    }
  }

  [[nodiscard]] double gate_delay(std::size_t g) const {
    if (g < first_gate_) return 0.0;
    const double dvth = std::max(pull_up_[g].delta_vth().value(),
                                 pull_down_[g].delta_vth().value());
    const double ov0 = 0.9 - 0.30;
    return 20e-12 * std::pow(ov0 / (ov0 - dvth), 1.3);
  }

  [[nodiscard]] double worst_dvth() const {
    double worst = 0.0;
    for (std::size_t g = first_gate_; g < pull_up_.size(); ++g) {
      worst = std::max({worst, pull_up_[g].delta_vth().value(),
                        pull_down_[g].delta_vth().value()});
    }
    return worst;
  }

 private:
  std::size_t first_gate_;
  std::vector<device::CompactBti> pull_up_;
  std::vector<device::CompactBti> pull_down_;
};

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(LogicSta, AgeMatchesPerDeviceStepsBitForBit) {
  // Inputs at p = 1 and p = 0 give gates with a zero-length stress or
  // rest interval under kOperating; the inverter chain makes more
  // stressed devices than one round of the batch's lockstep lanes.
  LogicNetlist net;
  const GateId a = net.add_input("a", 0.5);
  const GateId one = net.add_input("one", 1.0);
  const GateId zero = net.add_input("zero", 0.0);
  const GateId d = net.add_input("d", 0.3);
  const GateId buf = net.add_gate(GateKind::kBuf, one);
  const GateId inv = net.add_gate(GateKind::kInv, zero);
  const GateId nand = net.add_gate(GateKind::kNand2, a, buf);
  const GateId nor = net.add_gate(GateKind::kNor2, zero, d);
  GateId t = net.add_gate(GateKind::kOr2, nand, nor);
  for (int k = 0; k < 20; ++k) {
    t = k % 2 == 0 ? net.add_gate(GateKind::kInv, t)
                   : net.add_gate(GateKind::kAnd2, t, inv);
  }
  DeviceReference ref{net};
  const std::size_t gates = net.signal_probabilities().size();
  const LogicMode modes[] = {LogicMode::kOperating, LogicMode::kIdleVector,
                             LogicMode::kOperating,
                             LogicMode::kActiveRecovery};
  for (int step = 0; step < 40; ++step) {
    const LogicMode mode = modes[step % 4];
    const Seconds dt = step % 3 == 1 ? minutes(37.0) : hours(24.0);
    const Celsius temp{70.0 + 3.0 * (step % 7)};
    std::vector<bool> vec(net.input_count());
    for (std::size_t b = 0; b < vec.size(); ++b) {
      vec[b] = ((step / 4 + 1) >> b) & 1;
    }
    net.age(mode, temp, dt, vec);
    ref.age(net, mode, temp, dt, vec);
    for (std::size_t g = 0; g < gates; ++g) {
      ASSERT_EQ(bits_of(net.gate_delay(g).value()), bits_of(ref.gate_delay(g)))
          << "gate " << g << ", step " << step;
    }
    ASSERT_EQ(bits_of(net.worst_dvth().value()), bits_of(ref.worst_dvth()))
        << "step " << step;
  }
  EXPECT_GT(net.worst_dvth().value(), 0.001);
}

TEST(LogicSta, AgeRejectsBadStepWithoutMutating) {
  // kOperating used to skip a NaN or negative dt silently: every
  // interval failed its > 0 test.
  LogicNetlist net = make_c17_plus();
  net.age(LogicMode::kOperating, Celsius{85.0}, hours(24.0));
  const std::vector<bool> ones(net.input_count(), true);
  const std::size_t gates = net.signal_probabilities().size();
  std::vector<double> before(gates);
  for (std::size_t g = 0; g < gates; ++g) {
    before[g] = net.gate_delay(g).value();
  }
  const struct {
    double t_c;
    double dt_s;
  } bad[] = {{85.0, std::numeric_limits<double>::quiet_NaN()},
             {85.0, -3600.0},
             {85.0, std::numeric_limits<double>::infinity()},
             {std::numeric_limits<double>::quiet_NaN(), 3600.0},
             {-300.0, 3600.0}};
  for (const LogicMode mode :
       {LogicMode::kOperating, LogicMode::kIdleVector,
        LogicMode::kActiveRecovery}) {
    for (const auto& b : bad) {
      EXPECT_THROW(net.age(mode, Celsius{b.t_c}, Seconds{b.dt_s}, ones),
                   Error)
          << static_cast<int>(mode) << ": " << b.t_c << " C, dt " << b.dt_s;
      for (std::size_t g = 0; g < gates; ++g) {
        ASSERT_EQ(bits_of(net.gate_delay(g).value()), bits_of(before[g]))
            << "gate " << g;
      }
    }
  }
}

TEST(LogicNetlist, Validation) {
  LogicNetlist net;
  EXPECT_THROW((void)net.add_input("x", 2.0), Error);
  const GateId a = net.add_input("a", 0.5);
  EXPECT_THROW((void)net.add_gate(GateKind::kNand2, a), Error);
  EXPECT_THROW((void)net.add_gate(GateKind::kInv, a, a), Error);
  EXPECT_THROW((void)net.add_gate(GateKind::kInv, 99), Error);
  EXPECT_THROW((void)net.evaluate({true, false}), Error);
}

TEST(LogicNetlist, GateKindNames) {
  EXPECT_STREQ(to_string(GateKind::kNand2), "NAND2");
  EXPECT_STREQ(to_string(GateKind::kInput), "IN");
}

}  // namespace
}  // namespace dh::logic
