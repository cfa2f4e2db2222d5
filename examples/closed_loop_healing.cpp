// Closed-loop deep healing: sensors -> health monitor -> recovery action.
//
// The feedback loop of the paper's Fig. 12b, end to end: an RO-pair BTI
// sensor and an EM canary bank watch a hot block; a health monitor smooths
// the noisy readings; when the BTI alarm trips the block takes an active
// recovery nap, and when the first canary trips the grid starts EM
// recovery duty cycling.
//
// Build & run:  ./build/examples/closed_loop_healing
#include <cstdio>

#include "core/deep_healing.hpp"

int main() {
  using namespace dh;
  std::printf("== Closed-loop healing: 60 days at 95 C, heavy duty ==\n\n");

  sensors::RoPairSensor bti_sensor{Rng{11}};
  sensors::HealthMonitor bti_monitor{
      sensors::HealthMonitorParams{.trip = 0.012, .clear = 0.006}};
  sensors::EmCanaryParams cp;
  cp.mission_wire = em::paper_wire();
  cp.material = em::paper_calibrated_em_material();
  sensors::EmCanaryBank canaries{cp};

  // The block being protected.
  auto block = device::BtiModel::paper_calibrated();
  auto shadow = device::BtiModel::paper_calibrated();  // no-loop baseline
  em::CompactEm rail{em::CompactEmParams{.wire = cp.mission_wire,
                                         .material = cp.material}};

  const Celsius t{95.0};         // logic block temperature
  const Celsius t_rail{200.0};   // power-rail hotspot near a hot via
  const auto j_hot = mega_amps_per_cm2(5.5);
  const Seconds quantum = hours(6.0);
  int bti_naps = 0;
  bool em_duty = false;

  for (int step = 0; step < 240; ++step) {  // 60 days
    const bool nap = bti_monitor.alarm();
    if (nap) {
      ++bti_naps;
      block.apply({Volts{-0.3}, t}, quantum);
      bti_sensor.step(0.0, Volts{1.1}, t, quantum);
    } else {
      block.apply({Volts{1.1}, t}, quantum);
      bti_sensor.step(1.0, Volts{1.1}, t, quantum);
    }
    shadow.apply({Volts{1.1}, t}, quantum);
    (void)bti_monitor.update(bti_sensor.measure().value());

    // EM side: once the first canary trips, alternate the rail current.
    canaries.step(j_hot, t_rail, quantum);
    if (!em_duty && canaries.tripped() > 0) {
      em_duty = true;
      std::printf("day %5.1f: EM canary tripped -> starting recovery duty "
                  "(mission life consumed ~%.0f%%)\n",
                  step * 0.25, canaries.estimated_life_consumed() * 100.0);
    }
    if (em_duty) {
      rail.step(j_hot, t_rail, Seconds{quantum.value() * 0.55});
      rail.step(AmpsPerM2{-j_hot.value()}, t_rail,
                Seconds{quantum.value() * 0.45});
    } else {
      rail.step(j_hot, t_rail, quantum);
    }
    if (step % 40 == 0) {
      std::printf("day %5.1f: sensed dVth=%5.1f mV (true %5.1f), alarm=%d, "
                  "rail stress=%4.0f%% of critical\n",
                  step * 0.25, bti_monitor.estimate() * 1e3,
                  block.delta_vth().value() * 1e3,
                  bti_monitor.alarm() ? 1 : 0,
                  rail.end_stress().value() /
                      cp.material.critical_stress.value() * 100.0);
    }
  }

  std::printf("\nafter 60 days: block dVth = %.1f mV (%d recovery naps), "
              "rail %s (stress %.0f%% of critical)\n",
              block.delta_vth().value() * 1e3, bti_naps,
              rail.void_open() ? "NUCLEATED" : "healthy",
              rail.end_stress().value() /
                  cp.material.critical_stress.value() * 100.0);
  std::printf("Without the loop the block would sit at %.1f mV and the "
              "rail would have nucleated within ~2 days — the sensors turn "
              "the paper's schedule into feedback control.\n",
              shadow.delta_vth().value() * 1e3);
  return 0;
}
