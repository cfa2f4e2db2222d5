// Modified nodal analysis circuit simulator: DC operating point via one
// damped Newton-Raphson solve, and backward-Euler transient analysis.
// Scales comfortably to the few-hundred-node circuits in this project
// (assist circuitry, ring oscillators, PDN slices).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/mosfet.hpp"
#include "circuit/waveform.hpp"
#include "common/time_series.hpp"
#include "common/units.hpp"

namespace dh::circuit {

/// Node handle; 0 is ground.
using NodeId = std::size_t;

/// Handle to a voltage source (for branch-current probing).
struct VsourceId {
  std::size_t index;
};

struct DcSolution {
  std::vector<double> x;  // node voltages then branch currents
  std::size_t node_count = 0;
  [[nodiscard]] double voltage(NodeId n) const;
  [[nodiscard]] double branch_current(std::size_t branch) const;
};

/// Probe request for transient analysis.
struct Probe {
  enum class Kind { kNodeVoltage, kVsourceCurrent } kind;
  std::size_t target;  // NodeId or VsourceId.index
  std::string label;
};

struct TransientResult {
  std::vector<TimeSeries> traces;  // one per probe, same order
  [[nodiscard]] const TimeSeries& trace(const std::string& label) const;
};

class Circuit {
 public:
  Circuit() = default;

  [[nodiscard]] static NodeId ground() { return 0; }
  [[nodiscard]] NodeId add_node() { return node_count_++; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  void add_resistor(NodeId a, NodeId b, Ohms r);
  void add_capacitor(NodeId a, NodeId b, Farads c);
  VsourceId add_voltage_source(NodeId plus, NodeId minus, Waveform w);
  void add_mosfet(const MosfetParams& params, NodeId gate, NodeId drain,
                  NodeId source);

  /// DC operating point with the sources at their t = 0 values. Throws
  /// dh::ConvergenceError when Newton does not converge, and dh::Error
  /// when the linearized system is singular (e.g. conflicting sources).
  [[nodiscard]] DcSolution solve_dc() const;

  /// Backward-Euler transient from the DC point at t = 0 to a finite
  /// `t_end`. Throws dh::Error for a probe naming no node or source, and
  /// dh::ConvergenceError naming t for a step Newton cannot solve.
  [[nodiscard]] TransientResult solve_transient(
      double t_end, double dt, const std::vector<Probe>& probes) const;

 private:
  struct Resistor {
    NodeId a, b;
    double g;
  };
  struct Capacitor {
    NodeId a, b;
    double c;
  };
  struct Vsource {
    NodeId p, n;
    Waveform w;
  };
  struct Mosfet {
    MosfetParams params;
    NodeId g, d, s;
  };

  [[nodiscard]] std::size_t unknown_count() const {
    return node_count() - 1 + vsources_.size();
  }
  void assemble(const std::vector<double>& x_guess, double t,
                const std::vector<double>* x_prev, double dt,
                class AssembleOut& out) const;
  /// Damped Newton from `x`; `x_prev` is null for the DC point and the
  /// previous step's solution for a transient step at time t.
  [[nodiscard]] std::vector<double> newton_solve(
      std::vector<double> x, double t, const std::vector<double>* x_prev,
      double dt) const;

  std::size_t node_count_ = 1;  // ground is node 0
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Vsource> vsources_;
  std::vector<Mosfet> mosfets_;
};

}  // namespace dh::circuit
