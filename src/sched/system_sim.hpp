// Lifetime simulator of a many-core system with BTI+EM wearout, thermal
// coupling, a PDN, sensors, and a pluggable recovery policy — the
// quantitative version of the paper's Fig. 12.
//
// Each scheduling quantum:
//   1. workloads produce per-core demand,
//   2. the policy (given sensor observations) assigns actions and decides
//      whether the assist circuitry runs the grid in EM recovery mode,
//   3. demand of non-running cores migrates to running ones,
//   4. the power map feeds the thermal grid (steady-state per quantum —
//      thermal time constants are far below the quantum),
//   5. cores age/recover at their tile temperatures (compact BTI, every
//      core stepped in lockstep by Core::step_all),
//   6. the PDN ages at its per-segment current densities (compact EM),
//   7. metrics are recorded.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time_series.hpp"
#include "common/units.hpp"
#include "em/material.hpp"
#include "pdn/aging_pdn.hpp"
#include "sched/core_model.hpp"
#include "sched/policy.hpp"
#include "sched/workload.hpp"
#include "thermal/thermal_grid.hpp"

namespace dh::sched {

struct SystemParams {
  std::size_t rows = 4;
  std::size_t cols = 4;
  CoreParams core{};
  WorkloadParams workload{};
  thermal::ThermalGridParams thermal{};  // rows/cols overridden to match
  pdn::PdnParams pdn{};                  // rows/cols overridden to match
  em::EmMaterialParams em_material{};
  Seconds quantum{hours(6.0)};     // finite, > 0
  Volts sensor_noise{0.0005};      // Gaussian sigma per reading; finite, >= 0
  std::uint64_t seed = 42;
};

struct SystemSummary {
  /// Worst fractional fmax degradation ever observed across cores — the
  /// timing guardband a designer must provision.
  double guardband_fraction = 0.0;
  /// Degradation at end of life (after any final recovery).
  double final_degradation = 0.0;
  Seconds time_to_failure{-1.0};  // first PDN failure; negative = survived
  double mean_throughput = 0.0;   // delivered / demanded core-utilization
  double availability = 0.0;      // fraction of demand served
  double energy_joules = 0.0;
  double mean_temperature_c = 0.0;
  /// Quanta spent with active recovery in flight (see
  /// SystemSimulator::recovery_quanta).
  std::size_t recovery_quanta = 0;
  pdn::AgingPdnStats pdn_stats{};
};

class SystemSimulator {
 public:
  SystemSimulator(SystemParams params,
                  std::unique_ptr<RecoveryPolicy> policy);

  /// Advance one scheduling quantum. Allocates nothing once the first
  /// quantum has sized the solver buffers, unless a trace grows its
  /// storage or tracing (DH_TRACE) is on.
  void step();

  /// Run until `lifetime` (finite, > 0) has elapsed. When the DH_CKPT_DIR
  /// environment variable names a directory, the run checkpoints itself
  /// there every DH_CKPT_EVERY quanta (default 64) under
  /// `<dir>/sim_seed<seed>_<policy name>.dhck` (characters outside
  /// [A-Za-z0-9._-] in the name become '_'), and — if a valid checkpoint
  /// for this configuration already exists and no steps have run yet —
  /// resumes from it bit-identically, so a killed run loses at most one
  /// checkpoint interval. The traces are sized for the whole run up
  /// front, so its steps do not grow them.
  void run(Seconds lifetime);

  /// Checkpoint support: serialize the complete mutable state (cores,
  /// workloads, thermal grid, PDN wire states, RNG stream, accumulators,
  /// traces, policy state, and solver-cache state) such that
  /// load_state + run(T') is bit-identical to an uninterrupted run(T+T').
  void save_state(ckpt::Serializer& s) const;
  /// Restore from save_state output. Throws dh::Error when the snapshot
  /// was produced by a simulator with different parameters (grid size,
  /// quantum, seed, policy).
  void load_state(ckpt::Deserializer& d);

  /// Atomic whole-file checkpoint (snapshot container, kind
  /// "system_sim") — see ckpt::write_snapshot for the format guarantees.
  void save_checkpoint(const std::string& path) const;
  /// Restore from a checkpoint file; validates magic, version, kind, and
  /// CRC before any state is touched. Emits a `sim/resume` trace event.
  void load_checkpoint(const std::string& path);

  [[nodiscard]] Seconds now() const { return Seconds{now_s_}; }
  [[nodiscard]] std::size_t core_count() const { return cores_.size(); }
  [[nodiscard]] const Core& core(std::size_t i) const;
  [[nodiscard]] const RecoveryPolicy& policy() const { return *policy_; }

  /// Quanta in which active recovery was in flight (any core in BTI
  /// active recovery, or the grid in EM recovery mode) — makes schedules
  /// like Fig. 4's 1h:1h duty cycle directly auditable. Every `sim/quantum`
  /// trace event carries the `recovery_cores` and `em_recovery` fields it
  /// is counted from.
  [[nodiscard]] std::size_t recovery_quanta() const {
    return recovery_quanta_;
  }

  /// Sensor readings rejected as non-finite or absurd (and replaced by
  /// the core's last good reading) since this simulator was constructed.
  /// Not part of the summary or the checkpoint.
  [[nodiscard]] std::size_t sensor_rejections() const {
    return sensor_rejections_;
  }

  /// Max fractional degradation across cores vs time.
  [[nodiscard]] const TimeSeries& degradation_trace() const {
    return degradation_trace_;
  }
  /// Worst PDN IR drop vs time.
  [[nodiscard]] const TimeSeries& ir_drop_trace() const {
    return ir_drop_trace_;
  }
  /// Hottest tile temperature vs time.
  [[nodiscard]] const TimeSeries& temperature_trace() const {
    return temperature_trace_;
  }

  [[nodiscard]] SystemSummary summary() const;

 private:
  SystemParams params_;
  std::unique_ptr<RecoveryPolicy> policy_;
  std::vector<Core> cores_;
  std::vector<Workload> workloads_;
  thermal::ThermalGrid thermal_;
  pdn::AgingPdn pdn_;
  Rng rng_;
  double now_s_ = 0.0;
  double demanded_acc_ = 0.0;
  double delivered_acc_ = 0.0;
  double energy_j_ = 0.0;
  double temp_acc_ = 0.0;
  std::size_t steps_ = 0;
  std::size_t recovery_quanta_ = 0;
  std::size_t sensor_rejections_ = 0;
  double guardband_ = 0.0;
  double first_failure_s_ = -1.0;
  // Per-quantum buffers, sized once in the constructor so step() does not
  // allocate them. Rewritten every quantum; not checkpointed.
  std::vector<double> demand_;
  std::vector<CoreObservation> obs_;
  std::vector<double> util_;
  std::vector<double> power_;
  std::vector<double> loads_;
  std::vector<Celsius> temps_;
  PolicyDecision decision_;
  /// Last accepted per-core sensor reading — the substitute when a read
  /// comes back non-finite or absurd (a broken or very noisy sensor).
  std::vector<double> last_good_sensor_;
  TimeSeries degradation_trace_{"max_degradation", "frac"};
  TimeSeries ir_drop_trace_{"worst_ir_drop", "V"};
  TimeSeries temperature_trace_{"max_temp", "C"};
};

}  // namespace dh::sched
