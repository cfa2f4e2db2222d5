#include "device/compact_bti.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>

#include "common/arrhenius.hpp"
#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh::device {

namespace {

// The calibration. Saturation levels of the two recoverable pools (V of
// Vth shift) at the reference stress condition.
constexpr double kFastSatV = 0.012;
constexpr double kSlowSatV = 0.040;
// Capture time constants at the reference stress condition.
constexpr double kFastTauStressS = 600.0;  // ~10 min
constexpr double kSlowTauStressS = 3.6e5;  // ~100 h
// Emission time constants at the reference *active accelerated* recovery
// condition (110 C, -0.3 V).
constexpr double kFastTauRecoverS = 300.0;
constexpr double kSlowTauRecoverS = 1.5e4;
// Reference conditions the taus are quoted at.
constexpr BtiCondition kStressRef{Volts{1.2}, Celsius{110.0}};
constexpr BtiCondition kRecoverRef{Volts{-0.3}, Celsius{110.0}};
// Arrhenius activation energy for both pools' kinetics.
constexpr ElectronVolts kKineticsEa{0.55};
// Voltage acceleration (per e-fold) for capture/emission.
constexpr double kV0 = 0.25;
// Permanent precursor dynamics (same structure as the full model).
constexpr double kGenRateRefVPerS = 2.55e-7;
constexpr double kGenV0 = 0.1;  // strong voltage acceleration of generation
constexpr ElectronVolts kGenEa{0.80};  // generation activation energy
constexpr double kKLockPerVS = 0.041;
constexpr double kAnnealRateRefPerS = 2.8e-4;  // at kRecoverRef
constexpr double kPMaxV = 0.040;

/// Forward-Euler substep length of the permanent precursor dynamics.
constexpr double kSubstepS = 300.0;

/// The longest step whose substep count, ceil(dt / kSubstepS), fits an
/// int. Exactly representable, and dividing it by kSubstepS gives exactly
/// INT_MAX, so every step up to it has a count that fits.
constexpr double kMaxDtS =
    kSubstepS * static_cast<double>(std::numeric_limits<int>::max());

/// Stressed devices whose precursor chains apply_batch advances together.
/// Enough independent chains to keep the divider busy; a batch with more
/// runs in several rounds.
constexpr std::size_t kLanes = 32;

/// First-order relaxation of pool `x` toward `target` with time constant
/// `tau` over `dt` (exact update).
double relax(double x, double target, double tau, double dt) {
  if (tau <= 0.0) return target;
  return target + (x - target) * std::exp(-dt / tau);
}

/// The forward-Euler chain of one stressed interval: the generation rate
/// `g`, the step `h` and the number of steps.
struct PrecursorChain {
  double g;
  double h;
  int substeps;
};

/// The closed-form part of a stress interval: relaxes the recoverable
/// pools and returns the permanent precursor's chain.
inline PrecursorChain stress_prelude(const BtiCondition& condition,
                                     double dt, double& fast, double& slow) {
  const Kelvin t = to_kelvin(condition.temperature);
  const double v = condition.gate_bias.value();
  const double af_t = arrhenius_acceleration(
      kKineticsEa, t, to_kelvin(kStressRef.temperature));
  const double af_v = std::exp((v - kStressRef.gate_bias.value()) / kV0);
  const double accel = af_t * af_v;
  // Saturation level scales strongly with overdrive (the trap ensemble
  // only fills up to a voltage-dependent energy cutoff; a cubic law
  // tracks the calibrated model well across 0.6-1.2 V).
  const double ratio = std::max(0.1, v / kStressRef.gate_bias.value());
  const double sat_scale = ratio * ratio * ratio;
  fast = relax(fast, kFastSatV * sat_scale, kFastTauStressS / accel, dt);
  slow = relax(slow, kSlowSatV * sat_scale, kSlowTauStressS / accel, dt);
  // Permanent precursor generation + second-order locking. Generation
  // carries its own (stronger) voltage acceleration, mirroring the full
  // model's gen_v0.
  const double g =
      kGenRateRefVPerS *
      arrhenius_acceleration(kGenEa, t, to_kelvin(kStressRef.temperature)) *
      std::exp((v - kStressRef.gate_bias.value()) / kGenV0);
  const int substeps =
      std::max(1, static_cast<int>(std::ceil(dt / kSubstepS)));
  return PrecursorChain{.g = g, .h = dt / substeps, .substeps = substeps};
}

/// One forward-Euler substep of the precursor chain. The one copy of this
/// arithmetic: apply and apply_batch both run it, so their results agree
/// bit for bit.
inline void precursor_substep(const PrecursorChain& c, double& pu,
                              double& pl) {
  const double saturation = std::max(0.0, 1.0 - (pu + pl) / kPMaxV);
  const double lock_flux = kKLockPerVS * pu * pu;
  pu += c.h * (c.g * saturation - lock_flux);
  pl += c.h * lock_flux;
  pu = std::max(pu, 0.0);
}

/// A recovery interval (zero or negative bias) in closed form.
inline void recover(const BtiCondition& condition, double dt, double& fast,
                    double& slow, double& pu, double& pl) {
  const Kelvin t = to_kelvin(condition.temperature);
  const double v = condition.gate_bias.value();
  const double af_t = arrhenius_acceleration(
      kKineticsEa, t, to_kelvin(kRecoverRef.temperature));
  const double v_ref = -kRecoverRef.gate_bias.value();
  const double af_v = std::exp((std::max(-v, 0.0) - v_ref) / kV0);
  const double accel = af_t * af_v;
  fast = relax(fast, 0.0, kFastTauRecoverS / accel, dt);
  slow = relax(slow, 0.0, kSlowTauRecoverS / accel, dt);
  const double anneal = kAnnealRateRefPerS * accel;
  pu *= std::exp(-dt * anneal);
  pl *= std::exp(-dt * anneal * 1e-3);
}

/// A stressed device's precursor chain in apply_batch, with its state.
struct Lane {
  PrecursorChain chain;
  double pu;
  double pl;
  double* pu_out;  // the device's state
  double* pl_out;
};

/// Runs every lane's chain to its own step count, all live chains one
/// substep at a time, and writes each chain's state back to its device.
void advance_lockstep(std::span<Lane> lanes) {
  int done = 0;
  std::size_t live = lanes.size();
  while (live > 0) {
    int until = lanes[0].chain.substeps;
    for (std::size_t k = 1; k < live; ++k) {
      until = std::min(until, lanes[k].chain.substeps);
    }
    for (; done < until; ++done) {
      for (std::size_t k = 0; k < live; ++k) {
        precursor_substep(lanes[k].chain, lanes[k].pu, lanes[k].pl);
      }
    }
    // Retire the chains that are done and close the gaps.
    std::size_t kept = 0;
    for (std::size_t k = 0; k < live; ++k) {
      if (lanes[k].chain.substeps == until) {
        *lanes[k].pu_out = lanes[k].pu;
        *lanes[k].pl_out = lanes[k].pl;
      } else {
        lanes[kept++] = lanes[k];
      }
    }
    live = kept;
  }
}

/// True when no device appears in two jobs. Devices at ascending addresses
/// (the cores of one array) settle it in one pass; any other order is
/// compared pairwise.
bool distinct_devices(std::span<const BtiJob> jobs) {
  const std::less<const CompactBti*> before;
  bool ascending = true;
  for (std::size_t i = 1; i < jobs.size() && ascending; ++i) {
    ascending = before(jobs[i - 1].device, jobs[i].device);
  }
  if (ascending) return true;
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    for (std::size_t b = a + 1; b < jobs.size(); ++b) {
      if (jobs[a].device == jobs[b].device) return false;
    }
  }
  return true;
}

}  // namespace

void CompactBti::require_valid_dt(Seconds dt) {
  // The bound also rejects NaN and infinity.
  DH_REQUIRE(dt.value() >= 0.0 && dt.value() <= kMaxDtS,
             "time step must be non-negative and at most 300 s x INT_MAX "
             "(the substep count is an int)");
}

void CompactBti::require_valid_temperature(Celsius temperature) {
  DH_REQUIRE(to_kelvin(temperature).value() > 0.0,
             "absolute temperature must be positive");
}

void CompactBti::apply(const BtiCondition& condition, Seconds dt) {
  require_valid_dt(dt);
  require_valid_temperature(condition.temperature);
  if (dt.value() == 0.0) return;
  if (!condition.is_stress()) {
    recover(condition, dt.value(), fast_, slow_, pu_, pl_);
    return;
  }
  const PrecursorChain c = stress_prelude(condition, dt.value(), fast_, slow_);
  double pu = pu_;
  double pl = pl_;
  for (int s = 0; s < c.substeps; ++s) {
    precursor_substep(c, pu, pl);
  }
  pu_ = pu;
  pl_ = pl;
}

void CompactBti::apply_batch(std::span<const BtiJob> jobs) {
  for (const BtiJob& job : jobs) {
    DH_REQUIRE(job.device != nullptr, "batch job has no device");
    require_valid_dt(job.dt);
    require_valid_temperature(job.condition.temperature);
  }
  DH_REQUIRE(distinct_devices(jobs), "a device appears twice in one batch");

  std::array<Lane, kLanes> lanes{};
  std::size_t n = 0;
  for (const BtiJob& job : jobs) {
    if (job.dt.value() == 0.0) continue;
    CompactBti& d = *job.device;
    if (!job.condition.is_stress()) {
      recover(job.condition, job.dt.value(), d.fast_, d.slow_, d.pu_, d.pl_);
      continue;
    }
    lanes[n++] = {
        stress_prelude(job.condition, job.dt.value(), d.fast_, d.slow_),
        d.pu_, d.pl_, &d.pu_, &d.pl_};
    if (n == kLanes) {
      advance_lockstep(lanes);
      n = 0;
    }
  }
  advance_lockstep({lanes.data(), n});
}

void CompactBti::reset() {
  fast_ = slow_ = pu_ = pl_ = 0.0;
}

Volts CompactBti::delta_vth() const {
  return Volts{fast_ + slow_ + pu_ + pl_};
}

BtiBreakdown CompactBti::breakdown() const {
  return BtiBreakdown{
      .recoverable = Volts{fast_ + slow_},
      .unlocked = Volts{pu_},
      .locked = Volts{pl_},
  };
}

void CompactBti::save_state(ckpt::Serializer& s) const {
  s.begin_section("CBTI");
  s.write_f64(fast_);
  s.write_f64(slow_);
  s.write_f64(pu_);
  s.write_f64(pl_);
}

void CompactBti::load_state(ckpt::Deserializer& d) {
  d.expect_section("CBTI");
  fast_ = d.read_f64();
  slow_ = d.read_f64();
  pu_ = d.read_f64();
  pl_ = d.read_f64();
}

}  // namespace dh::device
