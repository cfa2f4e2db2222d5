#include "logic/logic_netlist.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

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
