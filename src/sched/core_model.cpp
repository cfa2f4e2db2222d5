#include "sched/core_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh::sched {

const char* to_string(CoreAction a) {
  switch (a) {
    case CoreAction::kRun:
      return "run";
    case CoreAction::kIdle:
      return "idle";
    case CoreAction::kBtiActiveRecovery:
      return "bti-recovery";
  }
  return "?";
}

namespace {

constexpr Volts kVdd{0.90};
/// The critical-path ring oscillator that sets fmax.
constexpr device::RingOscillatorParams kRo{
    .vdd = kVdd,
    .vth0 = Volts{0.32},
    .alpha = 1.3,
    .fresh_frequency = Hertz{2.0e9},
};
/// Gate bias the assist circuitry applies in kBtiActiveRecovery.
constexpr Volts kActiveRecoveryBias{-0.30};
/// Leakage power at kLeakageTRef, growing one e-fold per kLeakageTEfoldK.
constexpr Watts kLeakageRef{0.20};
constexpr Celsius kLeakageTRef{45.0};
constexpr double kLeakageTEfoldK = 30.0;

void require_utilization(double utilization) {
  DH_REQUIRE(utilization >= 0.0 && utilization <= 1.0,
             "utilization must be in [0,1]");
}

}  // namespace

Core::Core(CoreParams params)
    : params_(params), ro_(kRo) {}

device::BtiJob Core::quantum_job(CoreAction action, double utilization,
                                 Celsius temperature, Seconds dt) {
  switch (action) {
    case CoreAction::kRun:
      // Devices see stress for the utilized fraction of the quantum and
      // passive recovery for the rest (signal-probability averaging).
      return {&bti_, {kVdd, temperature}, Seconds{dt.value() * utilization},
              {Volts{0.0}, temperature},
              Seconds{dt.value() * (1.0 - utilization)}};
    case CoreAction::kIdle:
      return {&bti_, {Volts{0.0}, temperature}, dt};
    case CoreAction::kBtiActiveRecovery:
      return {&bti_, {kActiveRecoveryBias, temperature}, dt};
  }
  return {&bti_};
}

void Core::step(CoreAction action, double utilization, Celsius temperature,
                Seconds dt) {
  require_utilization(utilization);
  // Both of kRun's intervals are at most dt, so this check clears them
  // before the device moves: without it a long enough dt could pass the
  // stress part and throw on the relax part.
  device::CompactBti::require_valid_dt(dt);
  const device::BtiJob job =
      quantum_job(action, utilization, temperature, dt);
  bti_.apply(job.condition, job.dt);
  bti_.apply(job.relax, job.relax_dt);
}

void Core::step_all(std::span<Core> cores,
                    std::span<const CoreAction> actions,
                    std::span<const double> utilization,
                    std::span<const Celsius> temperatures, Seconds dt) {
  DH_REQUIRE(actions.size() == cores.size() &&
                 utilization.size() == cores.size() &&
                 temperatures.size() == cores.size(),
             "step_all needs one action, utilization and temperature per "
             "core");
  for (const double u : utilization) require_utilization(u);
  for (const Celsius t : temperatures) {
    device::CompactBti::require_valid_temperature(t);
  }
  // Every interval is dt, dt*u or dt*(1-u) with u in [0,1], never longer
  // than dt, so this one check clears every chunk's batch below before
  // any core changes.
  device::CompactBti::require_valid_dt(dt);
  // Fixed chunks keep the job list on the stack.
  constexpr std::size_t kChunk = 32;
  std::array<device::BtiJob, kChunk> jobs{};
  for (std::size_t begin = 0; begin < cores.size(); begin += kChunk) {
    const std::size_t n = std::min(cores.size() - begin, kChunk);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = begin + k;
      jobs[k] = cores[i].quantum_job(actions[i], utilization[i],
                                     temperatures[i], dt);
    }
    device::CompactBti::apply_batch({jobs.data(), n});
  }
}

Hertz Core::fmax() const {
  return ro_.frequency(bti_.delta_vth());
}

double Core::degradation() const {
  return ro_.degradation(bti_.delta_vth());
}

Watts Core::power(CoreAction action, double utilization,
                  Celsius temperature) const {
  // Exponential leakage growth, capped: past ~2 e-folds real designs
  // throttle (and the exponential alone would make the thermal solve
  // diverge in pathological configurations).
  const double leak_scale = std::min(
      8.0, std::exp((temperature.value() - kLeakageTRef.value()) /
                    kLeakageTEfoldK));
  // BTI raises Vth, which suppresses subthreshold leakage slightly.
  const double vth_scale =
      std::exp(-bti_.delta_vth().value() / 0.050);
  const double leak = kLeakageRef.value() * leak_scale * vth_scale;
  switch (action) {
    case CoreAction::kRun:
      return Watts{params_.dynamic_power_peak.value() * utilization + leak};
    case CoreAction::kIdle:
      return Watts{0.05 * leak};  // power-gated: residual rail leakage
    case CoreAction::kBtiActiveRecovery:
      return Watts{0.08 * leak};  // cross-coupled rails, tiny assist current
  }
  return Watts{leak};
}

Amps Core::supply_current(CoreAction action, double utilization,
                          Celsius temperature) const {
  return Amps{power(action, utilization, temperature).value() /
              kVdd.value()};
}

void Core::save_state(ckpt::Serializer& s) const {
  s.begin_section("CORE");
  bti_.save_state(s);
}

void Core::load_state(ckpt::Deserializer& d) {
  d.expect_section("CORE");
  bti_.load_state(d);
}

}  // namespace dh::sched
