// Reproduces Fig. 10: "Load Size vs. Performance and Switching time:
// Increasing the number of loads will reduce the performance as well as
// the switching time between modes."
#include <cstdio>
#include <iostream>

#include "circuit/assist.hpp"
#include "common/table.hpp"

int main() {
  using namespace dh;
  using namespace dh::circuit;

  std::printf("== Fig. 10: load size vs. normalized delay and switching "
              "time ==\n\n");

  double delay1 = 0.0;
  double switch1 = 0.0;
  Table table({"load size", "normalized delay", "switching time (ns)",
               "normalized switching"});
  for (int n = 1; n <= 5; ++n) {
    AssistCircuit assist{n};
    const double delay = assist.normalized_load_delay(AssistMode::kNormal);
    const double tsw = assist
                           .switching_time(AssistMode::kNormal,
                                           AssistMode::kBtiActiveRecovery)
                           .value();
    if (n == 1) {
      delay1 = delay;
      switch1 = tsw;
    }
    table.add_row({std::to_string(n), Table::num(delay / delay1, 3),
                   Table::num(tsw * 1e9, 1),
                   Table::num(tsw / switch1, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\npaper: delay grows roughly linearly to ~1.8x at 5 loads (droop\n"
      "across the shared header/footer), while the switching time falls\n"
      "with load size at a slower (sub-linear) rate — larger loads help\n"
      "slew the mode transition. Both trends reproduce above.\n");
  return 0;
}
