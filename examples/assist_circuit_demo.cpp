// Assist-circuitry walkthrough: solve the Fig. 8 scheme in all three
// modes with the built-in MNA circuit simulator and print the operating
// points and the mode-transition waveform (Fig. 9's content as text).
//
// Build & run:  ./build/examples/assist_circuit_demo
#include <cstdio>
#include <iostream>

#include "circuit/assist.hpp"
#include "common/table.hpp"

int main() {
  using namespace dh;
  using namespace dh::circuit;

  AssistCircuit assist;

  std::printf("== Assist circuitry (Fig. 8) operating points ==\n\n");
  Table table({"mode", "load VDD (V)", "load VSS (V)", "grid current (mA)",
               "load keeps running?"});
  for (const auto mode :
       {AssistMode::kNormal, AssistMode::kEmActiveRecovery,
        AssistMode::kBtiActiveRecovery}) {
    const AssistOperating op = assist.solve(mode);
    table.add_row({to_string(mode), Table::num(op.load_vdd, 3),
                   Table::num(op.load_vss, 3),
                   Table::num(op.grid_current * 1e3, 3),
                   mode == AssistMode::kBtiActiveRecovery ? "idle (healing)"
                                                          : "yes"});
  }
  table.print(std::cout);

  std::printf("\nBTI recovery bias delivered to the idle load: %.3f V "
              "(the paper needed only -0.3 V)\n",
              assist.bti_recovery_bias().value());

  std::printf("\n== Normal -> EM recovery transition (grid current) ==\n");
  const TransientResult tr = assist.transition(
      AssistMode::kNormal, AssistMode::kEmActiveRecovery, Seconds{2e-9},
      Seconds{40e-9}, Seconds{2e-10});
  const auto& i = tr.trace("grid_current");
  for (double t = 0.0; t <= 40e-9; t += 4e-9) {
    const double amps = i.sample(Seconds{t});
    const int bars = static_cast<int>((amps + 5e-4) / 1e-4 * 4.0);
    std::printf("  t=%5.1f ns  I=%+9.3e A  |", t * 1e9, amps);
    for (int b = 0; b < bars; ++b) std::printf("#");
    std::printf("\n");
  }
  std::printf("\nswitching time (Normal->EM): %.1f ns\n",
              assist
                  .switching_time(AssistMode::kNormal,
                                  AssistMode::kEmActiveRecovery)
                  .value() *
                  1e9);
  return 0;
}
