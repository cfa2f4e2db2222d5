#include "sched/policy.hpp"

#include <algorithm>
#include <cmath>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh::sched {

namespace {

// The factories check their parameters, so a bad one fails where it is set
// rather than as a NaN rotation index or a schedule that never recovers.
void require_period(Seconds period, const std::string& what) {
  DH_REQUIRE(std::isfinite(period.value()) && period.value() > 0.0,
             what + " must be finite and > 0");
}
void require_fraction(double x, const std::string& what) {
  DH_REQUIRE(x >= 0.0 && x <= 1.0, what + " must lie in [0, 1]");
}

class NoRecoveryPolicy final : public RecoveryPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "no-recovery"; }
  void decide_into(std::span<const CoreObservation> cores, Seconds, Seconds,
                   Rng&, PolicyDecision& d) override {
    d.actions.assign(cores.size(), CoreAction::kRun);
    d.em_recovery_mode = false;
  }
};

class PassiveIdlePolicy final : public RecoveryPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "passive-idle"; }
  void decide_into(std::span<const CoreObservation> cores, Seconds, Seconds,
                   Rng&, PolicyDecision& d) override {
    d.actions.resize(cores.size());
    for (std::size_t i = 0; i < cores.size(); ++i) {
      d.actions[i] = cores[i].demanded_utilization > 0.01 ? CoreAction::kRun
                                                          : CoreAction::kIdle;
    }
    d.em_recovery_mode = false;
  }
};

class PeriodicActivePolicy final : public RecoveryPolicy {
 public:
  explicit PeriodicActivePolicy(PeriodicPolicyParams p) : p_(p) {}
  [[nodiscard]] std::string name() const override {
    return "periodic-active";
  }
  void decide_into(std::span<const CoreObservation> cores, Seconds now,
                   Seconds, Rng&, PolicyDecision& d) override {
    const double frac =
        std::fmod(now.value(), p_.period.value()) / p_.period.value();
    const bool recovery_window = frac >= 1.0 - p_.bti_recovery_fraction;
    d.actions.resize(cores.size());
    for (std::size_t i = 0; i < cores.size(); ++i) {
      d.actions[i] = !recovery_window && cores[i].demanded_utilization > 0.01
                         ? CoreAction::kRun
                         : CoreAction::kBtiActiveRecovery;
    }
    // EM recovery alternates during the operating window (the system stays
    // up in EM mode, so this costs only the mode-switch overhead).
    const double op_frac = frac / std::max(1e-9, 1.0 - p_.bti_recovery_fraction);
    d.em_recovery_mode =
        !recovery_window &&
        std::fmod(op_frac * 10.0, 1.0) < p_.em_recovery_duty;
  }

 private:
  PeriodicPolicyParams p_;
};

class AdaptiveSensorPolicy final : public RecoveryPolicy {
 public:
  explicit AdaptiveSensorPolicy(AdaptivePolicyParams p) : p_(p) {}
  [[nodiscard]] std::string name() const override {
    return "adaptive-sensor";
  }
  void decide_into(std::span<const CoreObservation> cores, Seconds now,
                   Seconds dt, Rng&, PolicyDecision& d) override {
    if (in_recovery_.size() != cores.size()) {
      in_recovery_.assign(cores.size(), false);
    }
    d.actions.resize(cores.size());
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const double dvth = cores[i].sensed_dvth.value();
      if (!in_recovery_[i] && dvth >= p_.threshold.value()) {
        in_recovery_[i] = true;
      } else if (in_recovery_[i] && dvth <= p_.release.value()) {
        in_recovery_[i] = false;
      }
      d.actions[i] = in_recovery_[i] ? CoreAction::kBtiActiveRecovery
                     : cores[i].demanded_utilization > 0.01
                         ? CoreAction::kRun
                         : CoreAction::kIdle;
    }
    // Duty-cycled EM recovery, phase-locked to wall time.
    const double cycle = std::fmod(now.value() / dt.value(), 10.0);
    d.em_recovery_mode = cycle < 10.0 * p_.em_recovery_duty;
  }

  void save_state(ckpt::Serializer& s) const override {
    s.begin_section("APOL");
    s.write_bool_vec(in_recovery_);
  }
  void load_state(ckpt::Deserializer& d) override {
    d.expect_section("APOL");
    in_recovery_ = d.read_bool_vec();
  }

 private:
  AdaptivePolicyParams p_;
  std::vector<bool> in_recovery_;
};

class DarkSiliconPolicy final : public RecoveryPolicy {
 public:
  explicit DarkSiliconPolicy(RotationPolicyParams p) : p_(p) {}
  [[nodiscard]] std::string name() const override {
    return "dark-silicon-rotation";
  }
  void decide_into(std::span<const CoreObservation> cores, Seconds now,
                   Seconds dt, Rng&, PolicyDecision& d) override {
    const std::size_t n = cores.size();
    const std::size_t spares = std::min(p_.spares, n > 1 ? n - 1 : 0);
    const auto rotation = static_cast<std::size_t>(
        now.value() / p_.rotation_period.value());
    d.actions.assign(n, CoreAction::kRun);
    for (std::size_t k = 0; k < spares; ++k) {
      // Spread the parked cores across the array, walking each period.
      const std::size_t parked = (rotation + k * (n / std::max<std::size_t>(
                                                          spares, 1))) %
                                 n;
      d.actions[parked] = CoreAction::kBtiActiveRecovery;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (d.actions[i] == CoreAction::kRun &&
          cores[i].demanded_utilization <= 0.01) {
        d.actions[i] = CoreAction::kIdle;
      }
    }
    const double cycle = std::fmod(now.value() / dt.value(), 10.0);
    d.em_recovery_mode = cycle < 10.0 * p_.em_recovery_duty;
  }

 private:
  RotationPolicyParams p_;
};

}  // namespace

std::unique_ptr<RecoveryPolicy> make_no_recovery_policy() {
  return std::make_unique<NoRecoveryPolicy>();
}
std::unique_ptr<RecoveryPolicy> make_passive_idle_policy() {
  return std::make_unique<PassiveIdlePolicy>();
}
std::unique_ptr<RecoveryPolicy> make_periodic_active_policy(
    PeriodicPolicyParams params) {
  require_period(params.period, "period");
  require_fraction(params.bti_recovery_fraction, "bti_recovery_fraction");
  require_fraction(params.em_recovery_duty, "em_recovery_duty");
  return std::make_unique<PeriodicActivePolicy>(params);
}
std::unique_ptr<RecoveryPolicy> make_adaptive_sensor_policy(
    AdaptivePolicyParams params) {
  DH_REQUIRE(params.release.value() <= params.threshold.value(),
             "release must not exceed threshold");
  require_fraction(params.em_recovery_duty, "em_recovery_duty");
  return std::make_unique<AdaptiveSensorPolicy>(params);
}
std::unique_ptr<RecoveryPolicy> make_dark_silicon_policy(
    RotationPolicyParams params) {
  require_period(params.rotation_period, "rotation_period");
  require_fraction(params.em_recovery_duty, "em_recovery_duty");
  return std::make_unique<DarkSiliconPolicy>(params);
}

}  // namespace dh::sched
