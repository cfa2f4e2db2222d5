#include "circuit/mna.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math/linalg.hpp"

namespace dh::circuit {

namespace {

constexpr int kMaxNewtonIterations = 200;
constexpr double kAbsTol = 1e-9;
constexpr double kRelTol = 1e-6;
constexpr double kMaxStepV = 0.5;    // Newton damping limit on node voltages
constexpr double kGminFloor = 1e-12;  // permanent leak to ground

}  // namespace

double DcSolution::voltage(NodeId n) const {
  if (n == 0) return 0.0;
  DH_REQUIRE(n - 1 < node_count, "node id out of range");
  return x[n - 1];
}

double DcSolution::branch_current(std::size_t branch) const {
  DH_REQUIRE(node_count - 1 + branch < x.size(),
             "branch index out of range");
  return x[node_count - 1 + branch];
}

const TimeSeries& TransientResult::trace(const std::string& label) const {
  for (const auto& t : traces) {
    if (t.name() == label) return t;
  }
  throw Error("no transient trace named '" + label + "'");
}

void Circuit::add_resistor(NodeId a, NodeId b, Ohms r) {
  DH_REQUIRE(r.value() > 0.0, "resistance must be positive");
  DH_REQUIRE(a < node_count() && b < node_count(), "resistor node invalid");
  resistors_.push_back({a, b, 1.0 / r.value()});
}

void Circuit::add_capacitor(NodeId a, NodeId b, Farads c) {
  DH_REQUIRE(c.value() > 0.0, "capacitance must be positive");
  DH_REQUIRE(a < node_count() && b < node_count(), "capacitor node invalid");
  capacitors_.push_back({a, b, c.value()});
}

VsourceId Circuit::add_voltage_source(NodeId plus, NodeId minus, Waveform w) {
  DH_REQUIRE(plus < node_count() && minus < node_count(),
             "voltage source node invalid");
  vsources_.push_back({plus, minus, std::move(w)});
  return VsourceId{vsources_.size() - 1};
}

void Circuit::add_mosfet(const MosfetParams& params, NodeId gate,
                         NodeId drain, NodeId source) {
  DH_REQUIRE(gate < node_count() && drain < node_count() &&
                 source < node_count(),
             "mosfet node invalid");
  mosfets_.push_back({params, gate, drain, source});
}

// ---- Assembly -------------------------------------------------------------

class AssembleOut {
 public:
  explicit AssembleOut(std::size_t n_unknowns)
      : g(n_unknowns, n_unknowns, 0.0), rhs(n_unknowns, 0.0) {}

  // Node index -> unknown index (ground excluded).
  [[nodiscard]] bool grounded(NodeId n) const { return n == 0; }
  [[nodiscard]] std::size_t idx(NodeId n) const { return n - 1; }

  void add_conductance(NodeId a, NodeId b, double cond) {
    if (!grounded(a)) g(idx(a), idx(a)) += cond;
    if (!grounded(b)) g(idx(b), idx(b)) += cond;
    if (!grounded(a) && !grounded(b)) {
      g(idx(a), idx(b)) -= cond;
      g(idx(b), idx(a)) -= cond;
    }
  }
  /// Current `i` flows out of node a into node b (through the element).
  void add_current(NodeId a, NodeId b, double i) {
    if (!grounded(a)) rhs[idx(a)] -= i;
    if (!grounded(b)) rhs[idx(b)] += i;
  }
  /// Transconductance: current out of `a` into `b` controlled by the
  /// voltage of node `ctrl`: i = gm * v(ctrl).
  void add_transconductance(NodeId a, NodeId b, NodeId ctrl, double gm) {
    if (grounded(ctrl)) return;
    if (!grounded(a)) g(idx(a), idx(ctrl)) += gm;
    if (!grounded(b)) g(idx(b), idx(ctrl)) -= gm;
  }

  math::Matrix g;
  std::vector<double> rhs;
};

void Circuit::assemble(const std::vector<double>& x_guess, double t,
                       const std::vector<double>* x_prev, double dt,
                       AssembleOut& out) const {
  auto v_of = [&](NodeId n) { return n == 0 ? 0.0 : x_guess[n - 1]; };
  auto v_prev_of = [&](NodeId n) {
    return (n == 0 || x_prev == nullptr) ? 0.0 : (*x_prev)[n - 1];
  };

  // gmin leak on every non-ground node.
  for (std::size_t n = 1; n < node_count(); ++n) {
    out.g(n - 1, n - 1) += kGminFloor;
  }

  for (const auto& r : resistors_) out.add_conductance(r.a, r.b, r.g);

  for (const auto& c : capacitors_) {
    if (x_prev == nullptr) continue;  // DC: capacitor is open
    const double geq = c.c / dt;
    out.add_conductance(c.a, c.b, geq);
    const double v0 = v_prev_of(c.a) - v_prev_of(c.b);
    // Companion current source geq*v0 from b to a (it fights change).
    out.add_current(c.a, c.b, -geq * v0);
  }

  for (const auto& m : mosfets_) {
    const MosfetEval e =
        evaluate_mosfet(m.params, v_of(m.g), v_of(m.d), v_of(m.s));
    // Linearized: i(v) = ids + d_vg*dvg + d_vd*dvd + d_vs*dvs.
    // Current flows drain -> source through the device.
    const double ieq = e.ids - e.d_vg * v_of(m.g) - e.d_vd * v_of(m.d) -
                       e.d_vs * v_of(m.s);
    out.add_current(m.d, m.s, ieq);
    out.add_transconductance(m.d, m.s, m.g, e.d_vg);
    out.add_transconductance(m.d, m.s, m.d, e.d_vd);
    out.add_transconductance(m.d, m.s, m.s, e.d_vs);
  }

  const std::size_t nn = node_count() - 1;
  for (std::size_t k = 0; k < vsources_.size(); ++k) {
    const auto& vs = vsources_[k];
    const std::size_t br = nn + k;
    if (vs.p != 0) {
      out.g(vs.p - 1, br) += 1.0;
      out.g(br, vs.p - 1) += 1.0;
    }
    if (vs.n != 0) {
      out.g(vs.n - 1, br) -= 1.0;
      out.g(br, vs.n - 1) -= 1.0;
    }
    out.rhs[br] += vs.w.value(t);
  }
}

std::vector<double> Circuit::newton_solve(std::vector<double> x, double t,
                                          const std::vector<double>* x_prev,
                                          double dt) const {
  const std::size_t n = unknown_count();
  const std::size_t nn = node_count() - 1;
  for (int iter = 0; iter < kMaxNewtonIterations; ++iter) {
    AssembleOut out(n);
    assemble(x, t, x_prev, dt, out);
    // A singular system (e.g. conflicting ideal sources) throws from the
    // LU with its own message.
    const std::vector<double> x_new = math::solve_dense(out.g, out.rhs);
    // Damping: limit the node-voltage update.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < nn; ++i) {
      max_dv = std::max(max_dv, std::abs(x_new[i] - x[i]));
    }
    double scale = 1.0;
    if (max_dv > kMaxStepV) scale = kMaxStepV / max_dv;
    bool converged = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = (x_new[i] - x[i]) * scale;
      if (std::abs(dx) > kAbsTol + kRelTol * std::abs(x[i])) {
        converged = false;
      }
      x[i] += dx;
    }
    if (converged && scale == 1.0) return x;
  }
  if (x_prev == nullptr) {
    throw ConvergenceError("DC operating point failed to converge");
  }
  throw ConvergenceError("transient step failed to converge at t=" +
                         std::to_string(t));
}

DcSolution Circuit::solve_dc() const {
  DH_REQUIRE(node_count() >= 2, "circuit has no nodes");
  DcSolution out;
  out.x = newton_solve(std::vector<double>(unknown_count(), 0.0), 0.0,
                       nullptr, 0.0);
  out.node_count = node_count();
  return out;
}

TransientResult Circuit::solve_transient(
    double t_end, double dt, const std::vector<Probe>& probes) const {
  DH_REQUIRE(std::isfinite(t_end) && t_end > 0.0 && dt > 0.0 && dt < t_end,
             "transient window/step invalid");
  TransientResult result;
  for (const auto& p : probes) {
    DH_REQUIRE(p.kind == Probe::Kind::kNodeVoltage
                   ? p.target < node_count()
                   : p.target < vsources_.size(),
               "probe '" + p.label + "' names no node or source");
    result.traces.emplace_back(p.label,
                               p.kind == Probe::Kind::kNodeVoltage ? "V"
                                                                   : "A");
  }
  std::vector<double> x = solve_dc().x;
  const std::size_t nn = node_count() - 1;
  auto record = [&](double time) {
    for (std::size_t p = 0; p < probes.size(); ++p) {
      double v = 0.0;
      if (probes[p].kind == Probe::Kind::kNodeVoltage) {
        v = probes[p].target == 0 ? 0.0 : x[probes[p].target - 1];
      } else {
        v = x[nn + probes[p].target];
      }
      result.traces[p].append(Seconds{time}, v);
    }
  };
  record(0.0);
  double t = 0.0;
  std::vector<double> x_prev;
  while (t < t_end - 0.5 * dt) {
    t += dt;
    x_prev = x;
    x = newton_solve(x, t, &x_prev, dt);
    record(t);
  }
  return result;
}

}  // namespace dh::circuit
