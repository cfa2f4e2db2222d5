#include "sched/workload.hpp"

#include <cmath>
#include <numbers>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh::sched {

Workload::Workload(WorkloadParams params) : params_(params) {
  DH_REQUIRE(params_.utilization >= 0.0 && params_.utilization <= 1.0,
             "utilization must be in [0,1]");
  DH_REQUIRE(params_.duty > 0.0 && params_.duty <= 1.0,
             "duty must be in (0,1]");
  DH_REQUIRE(params_.period.value() > 0.0, "period must be positive");
  // Also rejects NaN, which would never flip the burst state.
  DH_REQUIRE(params_.burst_switch_prob >= 0.0 &&
                 params_.burst_switch_prob <= 1.0,
             "burst switch probability must be in [0,1]");
}

double Workload::sample(Seconds now, Rng& rng) {
  const double t = now.value() + params_.phase.value();
  switch (params_.kind) {
    case WorkloadKind::kConstant:
      return params_.utilization;
    case WorkloadKind::kPeriodic: {
      const double frac =
          std::fmod(t, params_.period.value()) / params_.period.value();
      return frac < params_.duty ? params_.utilization : 0.0;
    }
    case WorkloadKind::kBursty: {
      if (rng.bernoulli(params_.burst_switch_prob)) burst_on_ = !burst_on_;
      return burst_on_ ? params_.utilization : 0.05 * params_.utilization;
    }
    case WorkloadKind::kDiurnal: {
      const double phase_angle =
          2.0 * std::numbers::pi * t / params_.period.value();
      const double s = 0.5 * (1.0 + std::sin(phase_angle));
      return params_.utilization * (0.3 + 0.7 * s);
    }
  }
  return params_.utilization;
}

void Workload::save_state(ckpt::Serializer& s) const {
  s.begin_section("WKLD");
  s.write_bool(burst_on_);
}

void Workload::load_state(ckpt::Deserializer& d) {
  d.expect_section("WKLD");
  burst_on_ = d.read_bool();
}

}  // namespace dh::sched
