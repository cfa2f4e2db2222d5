// Signal-probability-aware logic aging with static timing analysis — the
// combinational-logic counterpart of the paper's recovery story, covering
// the prior-work line it cites (Penelope [15], GNOMO [14]: rebalance
// signal probabilities / input-vector control) and the step beyond them
// (assist-circuitry *active* recovery, which needs no favourable vector).
//
// Each gate carries two compact BTI states: the pull-up network (NBTI,
// stressed while the output is high) and the pull-down network (PBTI,
// stressed while the output is low). During operation the stress duty is
// the gate's output signal probability; during idle the duty is fixed by
// the parked input vector; in active recovery mode every device sees the
// negative recovery bias.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "device/compact_bti.hpp"

namespace dh::logic {

enum class GateKind { kInput, kBuf, kInv, kNand2, kNor2, kAnd2, kOr2 };

[[nodiscard]] const char* to_string(GateKind kind);

using GateId = std::size_t;

/// What the logic block spends a time slice doing.
enum class LogicMode {
  kOperating,       // inputs toggle with their signal probabilities
  kIdleVector,      // inputs parked at a chosen vector (passive per node)
  kActiveRecovery,  // assist circuitry: every device heals
};

/// Every gate is the same device: a 20 ps fresh delay, aging by the
/// alpha-power law at a 0.9 V supply (logic_netlist.cpp).
class LogicNetlist {
 public:
  /// Primary input with the given probability of being 1 during
  /// operation.
  [[nodiscard]] GateId add_input(std::string name, double p_one);
  [[nodiscard]] GateId add_gate(GateKind kind, GateId a);  // BUF/INV
  [[nodiscard]] GateId add_gate(GateKind kind, GateId a, GateId b);

  [[nodiscard]] std::size_t input_count() const { return inputs_.size(); }

  /// Signal probability of each node under independent-input assumption.
  [[nodiscard]] std::vector<double> signal_probabilities() const;

  /// Boolean evaluation for a specific input vector.
  [[nodiscard]] std::vector<bool> evaluate(
      const std::vector<bool>& input_vector) const;

  /// Advance wearout for one quantum in the given mode. `idle_vector` is
  /// required for kIdleVector. Every device steps in lockstep (one
  /// CompactBti::apply_batch, one job per device: in kOperating its
  /// stressed interval, then its rest), with the same results bit for bit
  /// as applying each device's intervals in turn. `dt` and `temperature`
  /// are checked before any device changes.
  void age(LogicMode mode, Celsius temperature, Seconds dt,
           const std::vector<bool>& idle_vector = {});

  /// Aged delay of one gate (alpha-power law on the worse of its two
  /// networks' Vth shifts).
  [[nodiscard]] Seconds gate_delay(GateId g) const;

  /// Critical-path arrival time across the netlist (topological STA).
  [[nodiscard]] Seconds critical_path_delay() const;

  /// Fractional critical-path slowdown vs. fresh.
  [[nodiscard]] double delay_degradation() const;

  /// Worst device Vth shift anywhere in the netlist.
  [[nodiscard]] Volts worst_dvth() const;

  /// Exhaustively searches input vectors (inputs <= 20) for the one
  /// minimizing total stressed-device count — the classic NBTI
  /// input-vector-control optimization.
  [[nodiscard]] std::vector<bool> best_idle_vector() const;

 private:
  struct Gate {
    GateKind kind;
    GateId a = 0, b = 0;
    std::string name;
    double p_one = 0.5;  // inputs only
    device::CompactBti pull_up;
    device::CompactBti pull_down;
  };

  // Fill `p` / `v` in place, one entry per gate: the bodies of
  // signal_probabilities() and evaluate().
  void signal_probabilities_into(std::vector<double>& p) const;
  void evaluate_into(const std::vector<bool>& input_vector,
                     std::vector<bool>& v) const;

  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  // age's batch and node values, kept between calls so that it allocates
  // nothing after its first call.
  std::vector<device::BtiJob> jobs_;
  std::vector<double> p_;
  std::vector<bool> v_;
};

/// A representative benchmark circuit: ISCAS-style c17 (6 NAND2) plus a
/// 4-stage buffered output chain, 5 inputs.
[[nodiscard]] LogicNetlist make_c17_plus();

}  // namespace dh::logic
