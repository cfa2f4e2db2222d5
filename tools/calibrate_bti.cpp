// Development-time calibration check for the BTI model: runs the Table I
// protocol and Fig. 4 cycling patterns and prints model-vs-target so the
// density weights in device/calibration.cpp can be tuned.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstddef>

#include "device/bti_model.hpp"
#include "device/calibration.hpp"

namespace {

// Iterative proportional fitting of the four density segment weights (and
// the permanent generation rate) to the Table I model column.
dh::device::BtiModelParams auto_fit() {
  using namespace dh;
  using namespace dh::device;
  BtiModelParams p = paper_calibrated_bti_params();
  const auto targets = table1_targets();
  const auto stress = paper_conditions::accelerated_stress();
  // Indices of the tunable segments (1, 3 and 5 are the zero-weight gaps).
  const std::size_t seg_for_cond[4] = {0, 2, 4, 6};
  for (int iter = 0; iter < 60; ++iter) {
    double m[4];
    for (int j = 0; j < 4; ++j) {
      BtiModel model{p};
      const auto out = run_stress_recovery(model, stress,
                                           table1_stress_time(),
                                           targets[j].condition,
                                           table1_recovery_time());
      m[j] = out.recovery_fraction();
    }
    double worst = 0.0;
    for (int j = 0; j < 4; ++j) {
      worst = std::max(worst,
                       std::abs(m[j] - targets[j].model_fraction));
    }
    if (worst < 5e-5) break;
    // Segment weights track the per-condition increments.
    auto& w = p.segment_weights;
    for (int j = 0; j < 4; ++j) {
      const double tgt_inc = targets[j].model_fraction -
                             (j > 0 ? targets[j - 1].model_fraction : 0.0);
      const double got_inc = m[j] - (j > 0 ? m[j - 1] : 0.0);
      if (got_inc > 1e-6) {
        const double ratio = std::clamp(tgt_inc / got_inc, 0.6, 1.6);
        w[seg_for_cond[j]] *= ratio;
      }
    }
    // Permanent share tracks the condition-4 residual.
    const double perm_target = 1.0 - targets[3].model_fraction;
    const double perm_got = 1.0 - m[3];
    if (perm_got > 1e-4) {
      p.gen_rate_ref_v_per_s *=
          std::clamp(perm_target / perm_got, 0.7, 1.4);
    }
  }
  return p;
}

}  // namespace

int main() {
  using namespace dh;
  using namespace dh::device;

  const auto fitted = auto_fit();
  std::printf("fitted segment weights:");
  for (const double w : fitted.segment_weights) {
    std::printf(" %.6f", w);
  }
  std::printf("\nfitted gen_rate_ref_v_per_s: %.6e\n\n",
              fitted.gen_rate_ref_v_per_s);

  const auto stress = paper_conditions::accelerated_stress();
  std::printf("== Table I protocol: 24h stress @ (%.2fV, %.0fC), 6h recovery\n",
              stress.gate_bias.value(), stress.temperature.value());
  for (const auto& target : table1_targets()) {
    BtiModel model{fitted};
    const auto out =
        run_stress_recovery(model, stress, table1_stress_time(),
                            target.condition, table1_recovery_time());
    std::printf(
        "%-22s model=%6.2f%%  target=%6.2f%%  (dVth: %5.1f -> %5.1f mV)\n",
        target.label, out.recovery_fraction() * 100.0,
        target.model_fraction * 100.0,
        out.dvth_after_stress.value() * 1e3,
        out.dvth_after_recovery.value() * 1e3);
  }

  // Breakdown after 24h stress.
  {
    BtiModel model{fitted};
    model.apply(stress, table1_stress_time());
    const auto b = model.breakdown();
    std::printf(
        "after 24h stress: R=%.1f mV, Pu=%.1f mV, Pl=%.1f mV, total=%.1f mV\n",
        b.recoverable.value() * 1e3, b.unlocked.value() * 1e3,
        b.locked.value() * 1e3, b.total().value() * 1e3);
  }

  std::printf("\n== Fig. 4 cycling: stress:recovery patterns (recovery No.4)\n");
  const auto rec = paper_conditions::recovery_no4();
  const struct {
    const char* name;
    double stress_h;
    double rec_h;
  } patterns[] = {{"4h:1h", 4, 1}, {"2h:1h", 2, 1}, {"1h:1h", 1, 1},
                  {"1h:2h", 1, 2}};
  for (const auto& p : patterns) {
    BtiModel model{fitted};
    std::printf("%-6s permanent(mV):", p.name);
    for (int c = 0; c < 8; ++c) {
      model.apply(stress, hours(p.stress_h));
      model.apply(rec, hours(p.rec_h));
      std::printf(" %5.2f", model.delta_vth().value() * 1e3);
    }
    std::printf("\n");
  }
  return 0;
}
