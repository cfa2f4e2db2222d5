// Development-time check of the assist circuitry against Figs. 9-10.
#include <cstdio>

#include "circuit/assist.hpp"

int main() {
  using namespace dh;
  using namespace dh::circuit;

  AssistCircuit ac;

  for (const auto mode :
       {AssistMode::kNormal, AssistMode::kEmActiveRecovery,
        AssistMode::kBtiActiveRecovery}) {
    const auto op = ac.solve(mode);
    std::printf("%-20s loadVdd=%.3f loadVss=%.3f Igrid=%+.3e A\n",
                to_string(mode), op.load_vdd, op.load_vss, op.grid_current);
  }
  std::printf("BTI recovery bias: %.3f V\n", ac.bti_recovery_bias().value());

  std::printf("\nFig10: load size sweep\n");
  for (int n = 1; n <= 5; ++n) {
    AssistCircuit a2{n};
    const double delay = a2.normalized_load_delay(AssistMode::kNormal);
    const double tsw =
        a2.switching_time(AssistMode::kNormal, AssistMode::kEmActiveRecovery)
            .value();
    const double tsw_bti =
        a2.switching_time(AssistMode::kNormal, AssistMode::kBtiActiveRecovery)
            .value();
    std::printf("  N=%d delay=%.3f  switch(N->EM)=%.2f ns  switch(N->BTI)=%.1f ns\n",
                n, delay, tsw * 1e9, tsw_bti * 1e9);
  }
  return 0;
}
