// Reproduces Fig. 4: "how BTI permanent components accumulate over time
// under different stress vs. recovery patterns (recovery condition is the
// same as in No. 4): Under 1 hour vs. 1 hour case, the permanent
// component is practically 0."
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "core/accelerated_test.hpp"

int main() {
  using namespace dh;
  std::printf(
      "== Fig. 4: permanent BTI component vs. scheduled recovery pattern "
      "==\n\n");

  constexpr int kCycles = 8;
  const auto patterns = core::run_fig4(kCycles);

  std::vector<std::string> headers{"pattern"};
  for (int c = 1; c <= kCycles; ++c) {
    // Not `"C" + std::string`: GCC 12 -O3 flags that with a false
    // -Wrestrict.
    headers.push_back(std::string{"C"} + std::to_string(c));
  }
  Table table{headers};
  for (const auto& p : patterns) {
    std::vector<std::string> row{p.label};
    for (const double mv : p.permanent_mv) row.push_back(Table::num(mv, 2));
    table.add_row(row);
  }
  std::printf("permanent component at the end of each cycle (mV):\n");
  table.print(std::cout);

  const double balanced = patterns[2].permanent_mv.back();
  const double worst = patterns[0].permanent_mv.back();
  std::printf(
      "\n1h:1h after %d cycles: %.2f mV — practically 0 on the plot scale\n"
      "(4h:1h accumulates %.2f mV, %.0fx more). Paper: balanced schedule\n"
      "=> permanent component ~0; unbalanced => accumulation.\n",
      kCycles, balanced, worst, worst / balanced);
  return 0;
}
