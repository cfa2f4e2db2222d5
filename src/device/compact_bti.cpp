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

/// One forward-Euler substep of the precursor chain with generation rate
/// `g` and step `h`. The one copy of this arithmetic: apply and
/// apply_batch both run it, so their results agree bit for bit.
inline void precursor_substep(double g, double h, double& pu, double& pl) {
  const double saturation = std::max(0.0, 1.0 - (pu + pl) / kPMaxV);
  const double lock_flux = kKLockPerVS * pu * pu;
  pu += h * (g * saturation - lock_flux);
  pl += h * lock_flux;
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

}  // namespace

/// One round of apply_batch's stressed devices, one array per field so
/// the substep loop over the lanes vectorizes. The lanes are kept in
/// order of step count, longest first, so the chains that finish first
/// are always the last live lanes.
struct CompactBti::Lanes {
  std::array<double, kLanes> g{};
  std::array<double, kLanes> h{};
  std::array<double, kLanes> pu{};
  std::array<double, kLanes> pl{};
  std::array<int, kLanes> substeps{};
  std::array<const BtiJob*, kLanes> job{};  // the device and its relax tail
  std::size_t count = 0;

  [[nodiscard]] bool full() const { return count == kLanes; }

  /// The job's relax interval, applied once its first interval is done:
  /// the one place a job's stress-then-relax order is kept.
  static void relax_tail(const BtiJob& j) {
    if (j.relax_dt.value() == 0.0) return;
    CompactBti& d = *j.device;
    recover(j.relax, j.relax_dt.value(), d.fast_, d.slow_, d.pu_, d.pl_);
  }

  /// Adds a job's chain behind every lane with at least as many steps.
  void add(const PrecursorChain& c, const BtiJob& j) {
    std::size_t k = count++;
    for (; k > 0 && substeps[k - 1] < c.substeps; --k) {
      g[k] = g[k - 1];
      h[k] = h[k - 1];
      pu[k] = pu[k - 1];
      pl[k] = pl[k - 1];
      substeps[k] = substeps[k - 1];
      job[k] = job[k - 1];
    }
    g[k] = c.g;
    h[k] = c.h;
    pu[k] = j.device->pu_;
    pl[k] = j.device->pl_;
    substeps[k] = c.substeps;
    job[k] = &j;
  }

  /// Runs every chain to its own step count, all live chains one substep
  /// at a time; a chain that is done writes its state back to its device,
  /// which then takes its relax tail, and leaves the live tail. Empties
  /// the round.
  void advance() {
    int done = 0;
    std::size_t live = count;
    while (live > 0) {
      const int until = substeps[live - 1];
      for (; done < until; ++done) {
        for (std::size_t k = 0; k < live; ++k) {
          precursor_substep(g[k], h[k], pu[k], pl[k]);
        }
      }
      for (; live > 0 && substeps[live - 1] == until; --live) {
        const BtiJob& j = *job[live - 1];
        j.device->pu_ = pu[live - 1];
        j.device->pl_ = pl[live - 1];
        relax_tail(j);
      }
    }
    count = 0;
  }
};

namespace {

/// Throws dh::Error unless the condition's gate bias is finite: a NaN or
/// +inf bias would turn the state to NaN, and -inf would wipe it.
void require_finite_bias(const BtiCondition& condition) {
  DH_REQUIRE(std::isfinite(condition.gate_bias.value()),
             "gate bias must be finite");
}

/// The checks apply makes on an interval before it moves the device.
void require_valid_interval(const BtiCondition& condition, Seconds dt) {
  CompactBti::require_valid_dt(dt);
  CompactBti::require_valid_temperature(condition.temperature);
  require_finite_bias(condition);
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
  require_valid_interval(condition, dt);
  if (dt.value() == 0.0) return;
  if (!condition.is_stress()) {
    recover(condition, dt.value(), fast_, slow_, pu_, pl_);
    return;
  }
  const PrecursorChain c = stress_prelude(condition, dt.value(), fast_, slow_);
  double pu = pu_;
  double pl = pl_;
  for (int s = 0; s < c.substeps; ++s) {
    precursor_substep(c.g, c.h, pu, pl);
  }
  pu_ = pu;
  pl_ = pl;
}

void CompactBti::apply_batch(std::span<const BtiJob> jobs) {
  for (const BtiJob& job : jobs) {
    DH_REQUIRE(job.device != nullptr, "batch job has no device");
    require_valid_interval(job.condition, job.dt);
    require_valid_interval(job.relax, job.relax_dt);
    DH_REQUIRE(!job.relax.is_stress() || job.relax_dt.value() == 0.0,
               "a job's relax interval must not stress the device");
  }
  DH_REQUIRE(distinct_devices(jobs), "a device appears twice in one batch");

  Lanes lanes;
  for (const BtiJob& job : jobs) {
    CompactBti& d = *job.device;
    const double dt = job.dt.value();
    if (dt > 0.0 && job.condition.is_stress()) {
      // The chain's writeback in Lanes::advance applies the relax tail.
      lanes.add(stress_prelude(job.condition, dt, d.fast_, d.slow_), job);
      if (lanes.full()) lanes.advance();
      continue;
    }
    if (dt > 0.0) recover(job.condition, dt, d.fast_, d.slow_, d.pu_, d.pl_);
    Lanes::relax_tail(job);
  }
  lanes.advance();
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
