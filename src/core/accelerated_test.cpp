#include "core/accelerated_test.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "device/bti_sensor.hpp"
#include "em/em_sensor.hpp"

namespace dh::core {

std::array<Table1Row, 4> run_table1(std::uint64_t seed) {
  using namespace device;
  const auto stress = paper_conditions::accelerated_stress();
  const auto targets = table1_targets();

  std::array<Table1Row, 4> rows{};
  for (std::size_t j = 0; j < targets.size(); ++j) {
    auto model = BtiModel::paper_calibrated();
    const auto out =
        run_stress_recovery(model, stress, table1_stress_time(),
                            targets[j].condition, table1_recovery_time());

    // Virtual-chamber measurement: the same experiment read through a
    // 75-stage ring oscillator and a frequency counter.
    auto measured_model = BtiModel::paper_calibrated();
    RingOscillatorParams rop;
    rop.vdd = Volts{1.1};
    BtiSensor sensor{RingOscillator{rop}, Rng{seed + j}};
    measured_model.apply(stress, table1_stress_time());
    const Volts dv_stress = sensor.measure_delta_vth(measured_model);
    measured_model.apply(targets[j].condition, table1_recovery_time());
    const Volts dv_rec = sensor.measure_delta_vth(measured_model);
    const double measured_fraction =
        dv_stress.value() > 0.0
            ? (dv_stress.value() - dv_rec.value()) / dv_stress.value()
            : 0.0;

    rows[j] = Table1Row{
        .label = targets[j].label,
        .condition = targets[j].condition,
        .model_fraction = out.recovery_fraction(),
        .measured_fraction = measured_fraction,
        .paper_model = targets[j].model_fraction,
        .paper_measured = targets[j].measured_fraction,
    };
  }
  return rows;
}

std::vector<Fig4Pattern> run_fig4(int cycles) {
  using namespace device;
  DH_REQUIRE(cycles >= 1, "need at least one cycle");
  const auto stress = paper_conditions::accelerated_stress();
  const auto recovery = paper_conditions::recovery_no4();

  std::vector<Fig4Pattern> patterns = {
      {"4h stress : 1h recovery", hours(4), hours(1), {}},
      {"2h stress : 1h recovery", hours(2), hours(1), {}},
      {"1h stress : 1h recovery", hours(1), hours(1), {}},
      {"1h stress : 2h recovery", hours(1), hours(2), {}},
  };
  for (auto& p : patterns) {
    auto model = BtiModel::paper_calibrated();
    for (int c = 0; c < cycles; ++c) {
      model.apply(stress, p.stress_per_cycle);
      model.apply(recovery, p.recovery_per_cycle);
      p.permanent_mv.push_back(model.delta_vth().value() * 1e3);
    }
  }
  return patterns;
}

double EmExperimentResult::recovery_fraction() const {
  const double stressed =
      peak_resistance.value() - fresh_resistance.value();
  if (stressed <= 0.0) return 0.0;
  return (peak_resistance.value() - final_resistance.value()) / stressed;
}

namespace {

struct EmRun {
  em::KorhonenSolver solver{em::paper_wire(),
                            em::paper_calibrated_em_material()};
  em::EmSensor sensor{Rng{99}};
  EmExperimentResult result;
  Celsius chamber = em::paper_em_conditions::chamber();

  EmRun() {
    result.fresh_resistance = solver.resistance(chamber);
    result.resistance =
        TimeSeries{"resistance", "ohm"};
    record();
  }
  void record() {
    const Ohms r = solver.broken()
                       ? Ohms{1e9}
                       : sensor.measure(solver.resistance(chamber));
    result.resistance.append(solver.elapsed(), r.value());
    if (!solver.broken()) {
      result.peak_resistance =
          Ohms{std::max(result.peak_resistance.value(), r.value())};
    }
  }
  void phase(AmpsPerM2 j, Seconds duration, Seconds sample_every) {
    double remaining = duration.value();
    while (remaining > 0.0) {
      const double h = std::min(remaining, sample_every.value());
      solver.step(j, chamber, Seconds{h});
      remaining -= h;
      if (result.nucleation_time.value() < 0.0 && solver.ever_nucleated()) {
        result.nucleation_time = solver.elapsed();
      }
      if (!result.broke && solver.broken()) {
        result.broke = true;
        result.break_time = solver.elapsed();
      }
      record();
    }
  }
  void finish() {
    result.final_resistance = solver.broken()
                                  ? Ohms{1e9}
                                  : solver.resistance(chamber);
  }
};

}  // namespace

EmExperimentResult run_fig5(bool active_recovery, Seconds recovery_time) {
  using namespace em::paper_em_conditions;
  EmRun run;
  run.phase(stress_density(), minutes(600), minutes(5));
  run.phase(active_recovery ? reverse_density() : AmpsPerM2{0.0},
            recovery_time, minutes(5));
  run.finish();
  return run.result;
}

EmExperimentResult run_fig6(Seconds hold_after_heal) {
  using namespace em::paper_em_conditions;
  EmRun run;
  // Stress through nucleation plus a short (early) growth window.
  while (!run.solver.ever_nucleated() &&
         run.solver.elapsed().value() < minutes(900).value()) {
    run.phase(stress_density(), minutes(5), minutes(5));
  }
  run.phase(stress_density(), minutes(30), minutes(5));
  // Active recovery to full healing, then keep the reverse current on:
  // reverse-current-induced EM appears at the other end.
  run.phase(reverse_density(), minutes(240), minutes(5));
  run.result.final_resistance = run.solver.resistance(run.chamber);
  run.phase(reverse_density(), hold_after_heal, minutes(5));
  // final_resistance reflects the healed minimum (before reverse EM).
  return run.result;
}

Fig7Result run_fig7(Seconds forward_interval, Seconds reverse_interval,
                    Seconds max_time) {
  using namespace em::paper_em_conditions;
  Fig7Result out;
  // Baseline: constant stress.
  {
    EmRun base;
    while (!base.solver.ever_nucleated() &&
           base.solver.elapsed().value() < max_time.value()) {
      base.phase(stress_density(), minutes(10), minutes(10));
    }
    out.baseline_nucleation = base.result.nucleation_time;
  }
  // Periodic recovery intervals during the nucleation phase.
  EmRun run;
  while (!run.solver.ever_nucleated() &&
         run.solver.elapsed().value() < max_time.value()) {
    run.phase(stress_density(), forward_interval, minutes(10));
    if (run.solver.ever_nucleated()) break;
    run.phase(reverse_density(), reverse_interval, minutes(10));
  }
  // After (delayed) nucleation, keep stressing until the metal breaks or
  // time runs out — the paper's Fig. 7 ends with "metal broke".
  while (!run.solver.broken() &&
         run.solver.elapsed().value() < max_time.value()) {
    run.phase(stress_density(), minutes(30), minutes(10));
  }
  run.finish();
  out.periodic = run.result;
  return out;
}

double Fig7Result::nucleation_delay_factor() const {
  if (baseline_nucleation.value() <= 0.0 ||
      periodic.nucleation_time.value() <= 0.0) {
    return 0.0;
  }
  return periodic.nucleation_time.value() / baseline_nucleation.value();
}

}  // namespace dh::core
