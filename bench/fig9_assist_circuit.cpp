// Reproduces Fig. 9: "Functionality simulation in 28nm FDSOI: (a) The
// current direction is reversed under EM Active Recovery Mode, and the
// current value is still the same; (b) Under BTI Active Recovery Mode,
// load VDD and VSS values are switched."
#include <cmath>
#include <cstdio>
#include <iostream>

#include "circuit/assist.hpp"
#include "common/table.hpp"

int main() {
  using namespace dh;
  using namespace dh::circuit;

  std::printf("== Fig. 9: assist circuitry functionality (MNA transient) "
              "==\n\n");
  AssistCircuit assist;

  // (a) Normal -> EM Active Recovery: grid current reverses, same value.
  std::printf("(a) VDD grid current across the Normal -> EM switch:\n");
  const TransientResult em = assist.transition(
      AssistMode::kNormal, AssistMode::kEmActiveRecovery, Seconds{10e-9},
      Seconds{60e-9}, Seconds{2e-10});
  const auto& i = em.trace("grid_current");
  for (double t = 0.0; t <= 60e-9; t += 5e-9) {
    std::printf("  t=%5.1f ns  I=%+9.3e A\n", t * 1e9,
                i.sample(Seconds{t}));
  }
  std::printf("  |I_normal| = %.3e A, |I_em| = %.3e A (paper: ~5e-4 A, "
              "same magnitude)\n\n",
              std::abs(i.front_value()), std::abs(i.back_value()));

  // (b) Normal -> BTI Active Recovery: load rails swap.
  std::printf("(b) load rail voltages across the Normal -> BTI switch:\n");
  const TransientResult bti = assist.transition(
      AssistMode::kNormal, AssistMode::kBtiActiveRecovery, Seconds{50e-9},
      Seconds{1.2e-6}, Seconds{2e-9});
  const auto& vdd = bti.trace("load_vdd");
  const auto& vss = bti.trace("load_vss");
  for (double t = 0.0; t <= 1.2e-6; t += 1.2e-7) {
    std::printf("  t=%7.1f ns  loadVdd=%.3f V  loadVss=%.3f V\n", t * 1e9,
                vdd.sample(Seconds{t}), vss.sample(Seconds{t}));
  }

  Table table({"quantity", "this work", "paper"});
  const AssistOperating op = assist.solve(AssistMode::kBtiActiveRecovery);
  table.add_row({"load VSS node in BTI mode (V)", Table::num(op.load_vss, 3),
                 "~0.816"});
  table.add_row({"load VDD node in BTI mode (V)", Table::num(op.load_vdd, 3),
                 "~0.223"});
  table.add_row({"droop/increase dV (V)",
                 Table::num(1.0 - op.load_vss, 3) + " / " +
                     Table::num(op.load_vdd, 3),
                 "0.2 ~ 0.3"});
  table.add_row({"negative bias available (V)",
                 Table::num(assist.bti_recovery_bias().value(), 3),
                 "-0.816 (>> -0.3 needed)"});
  std::printf("\n");
  table.print(std::cout);
  return 0;
}
