#include "logic/logic_netlist.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dh::logic {

const char* to_string(GateKind kind) {
  switch (kind) {
    case GateKind::kInput:
      return "IN";
    case GateKind::kBuf:
      return "BUF";
    case GateKind::kInv:
      return "INV";
    case GateKind::kNand2:
      return "NAND2";
    case GateKind::kNor2:
      return "NOR2";
    case GateKind::kAnd2:
      return "AND2";
    case GateKind::kOr2:
      return "OR2";
  }
  return "?";
}

namespace {

constexpr Volts kVdd{0.9};
constexpr double kVth = 0.30;
constexpr double kAlpha = 1.3;
constexpr double kBaseDelayS = 20e-12;  // fresh gate delay
constexpr Volts kRecoveryBias{-0.3};
static_assert(kVdd.value() > kVth, "supply must exceed the threshold");

bool is_two_input(GateKind k) {
  return k == GateKind::kNand2 || k == GateKind::kNor2 ||
         k == GateKind::kAnd2 || k == GateKind::kOr2;
}

double propagate_p(GateKind k, double pa, double pb) {
  switch (k) {
    case GateKind::kBuf:
      return pa;
    case GateKind::kInv:
      return 1.0 - pa;
    case GateKind::kNand2:
      return 1.0 - pa * pb;
    case GateKind::kAnd2:
      return pa * pb;
    case GateKind::kNor2:
      return (1.0 - pa) * (1.0 - pb);
    case GateKind::kOr2:
      return 1.0 - (1.0 - pa) * (1.0 - pb);
    case GateKind::kInput:
      return pa;
  }
  return pa;
}

bool eval_gate(GateKind k, bool a, bool b) {
  switch (k) {
    case GateKind::kBuf:
      return a;
    case GateKind::kInv:
      return !a;
    case GateKind::kNand2:
      return !(a && b);
    case GateKind::kAnd2:
      return a && b;
    case GateKind::kNor2:
      return !(a || b);
    case GateKind::kOr2:
      return a || b;
    case GateKind::kInput:
      return a;
  }
  return a;
}

}  // namespace

GateId LogicNetlist::add_input(std::string name, double p_one) {
  DH_REQUIRE(p_one >= 0.0 && p_one <= 1.0, "p_one must be a probability");
  Gate g{GateKind::kInput, 0, 0, std::move(name), p_one,
         device::CompactBti{}, device::CompactBti{}};
  gates_.push_back(std::move(g));
  inputs_.push_back(gates_.size() - 1);
  return gates_.size() - 1;
}

GateId LogicNetlist::add_gate(GateKind kind, GateId a) {
  DH_REQUIRE(kind == GateKind::kBuf || kind == GateKind::kInv,
             "single-input overload is for BUF/INV");
  DH_REQUIRE(a < gates_.size(), "fanin out of range");
  gates_.push_back(Gate{kind, a, a, to_string(kind), 0.5,
                        device::CompactBti{}, device::CompactBti{}});
  return gates_.size() - 1;
}

GateId LogicNetlist::add_gate(GateKind kind, GateId a, GateId b) {
  DH_REQUIRE(is_two_input(kind), "two-input overload for 2-input gates");
  DH_REQUIRE(a < gates_.size() && b < gates_.size(), "fanin out of range");
  gates_.push_back(Gate{kind, a, b, to_string(kind), 0.5,
                        device::CompactBti{}, device::CompactBti{}});
  return gates_.size() - 1;
}

std::vector<double> LogicNetlist::signal_probabilities() const {
  std::vector<double> p;
  signal_probabilities_into(p);
  return p;
}

void LogicNetlist::signal_probabilities_into(std::vector<double>& p) const {
  p.resize(gates_.size());
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.kind == GateKind::kInput) {
      p[i] = g.p_one;
    } else {
      p[i] = propagate_p(g.kind, p[g.a], p[g.b]);
    }
  }
}

std::vector<bool> LogicNetlist::evaluate(
    const std::vector<bool>& input_vector) const {
  std::vector<bool> v;
  evaluate_into(input_vector, v);
  return v;
}

void LogicNetlist::evaluate_into(const std::vector<bool>& input_vector,
                                 std::vector<bool>& v) const {
  DH_REQUIRE(input_vector.size() == inputs_.size(),
             "input vector size mismatch");
  v.resize(gates_.size());
  std::size_t next_input = 0;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.kind == GateKind::kInput) {
      v[i] = input_vector[next_input++];
    } else {
      v[i] = eval_gate(g.kind, v[g.a], v[g.b]);
    }
  }
}

void LogicNetlist::age(LogicMode mode, Celsius temperature, Seconds dt,
                       const std::vector<bool>& idle_vector) {
  const device::BtiCondition stress{kVdd, temperature};
  const device::BtiCondition rest{Volts{0.0}, temperature};
  const device::BtiCondition heal{kRecoveryBias, temperature};

  jobs_.clear();
  switch (mode) {
    case LogicMode::kOperating: {
      // Duty-cycle approximation: the pull-up is stressed while the
      // output is 1 (dt*p) and rests while it is 0 (dt*(1-p)); the
      // pull-down the other way round.
      signal_probabilities_into(p_);
      for (std::size_t i = 0; i < gates_.size(); ++i) {
        Gate& g = gates_[i];
        if (g.kind == GateKind::kInput) continue;
        const Seconds high{dt.value() * p_[i]};
        const Seconds low{dt.value() * (1.0 - p_[i])};
        jobs_.push_back({&g.pull_up, stress, high, rest, low});
        jobs_.push_back({&g.pull_down, stress, low, rest, high});
      }
      break;
    }
    case LogicMode::kIdleVector: {
      evaluate_into(idle_vector, v_);
      for (std::size_t i = 0; i < gates_.size(); ++i) {
        Gate& g = gates_[i];
        if (g.kind == GateKind::kInput) continue;
        jobs_.push_back({&g.pull_up, v_[i] ? stress : rest, dt});
        jobs_.push_back({&g.pull_down, v_[i] ? rest : stress, dt});
      }
      break;
    }
    case LogicMode::kActiveRecovery: {
      for (auto& g : gates_) {
        if (g.kind == GateKind::kInput) continue;
        jobs_.push_back({&g.pull_up, heal, dt});
        jobs_.push_back({&g.pull_down, heal, dt});
      }
      break;
    }
  }
  device::CompactBti::apply_batch(jobs_);
}

Seconds LogicNetlist::gate_delay(GateId g) const {
  DH_REQUIRE(g < gates_.size(), "gate id out of range");
  if (gates_[g].kind == GateKind::kInput) return Seconds{0.0};
  const double dvth = std::max(gates_[g].pull_up.delta_vth().value(),
                               gates_[g].pull_down.delta_vth().value());
  const double ov0 = kVdd.value() - kVth;
  const double ov = ov0 - dvth;
  DH_REQUIRE(ov > 0.0, "gate no longer switches");
  return Seconds{kBaseDelayS * std::pow(ov0 / ov, kAlpha)};
}

Seconds LogicNetlist::critical_path_delay() const {
  std::vector<double> at(gates_.size(), 0.0);
  double worst = 0.0;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.kind == GateKind::kInput) {
      at[i] = 0.0;
      continue;
    }
    const double fanin_at = std::max(at[g.a], at[g.b]);
    at[i] = fanin_at + gate_delay(i).value();
    worst = std::max(worst, at[i]);
  }
  return Seconds{worst};
}

double LogicNetlist::delay_degradation() const {
  // Fresh critical path = depth * base delay; compute by counting levels.
  std::vector<double> depth(gates_.size(), 0.0);
  double max_depth = 0.0;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.kind == GateKind::kInput) continue;
    depth[i] = std::max(depth[g.a], depth[g.b]) + 1.0;
    max_depth = std::max(max_depth, depth[i]);
  }
  const double fresh = max_depth * kBaseDelayS;
  if (fresh <= 0.0) return 0.0;
  return critical_path_delay().value() / fresh - 1.0;
}

Volts LogicNetlist::worst_dvth() const {
  Volts worst{0.0};
  for (const auto& g : gates_) {
    worst = std::max({worst, g.pull_up.delta_vth(), g.pull_down.delta_vth()});
  }
  return worst;
}

std::vector<bool> LogicNetlist::best_idle_vector() const {
  DH_REQUIRE(inputs_.size() <= 20, "exhaustive vector search capped at 2^20");
  // Minimize the number of stressed networks, weighting pull-ups (NBTI,
  // the first-order effect) double.
  std::vector<bool> best(inputs_.size(), false);
  double best_cost = 1e18;
  const std::size_t n = inputs_.size();
  for (std::size_t code = 0; code < (1u << n); ++code) {
    std::vector<bool> vec(n);
    for (std::size_t b = 0; b < n; ++b) vec[b] = (code >> b) & 1u;
    const std::vector<bool> v = evaluate(vec);
    double cost = 0.0;
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      if (gates_[i].kind == GateKind::kInput) continue;
      cost += v[i] ? 2.0 : 1.0;  // out=1 stresses the pull-up (NBTI)
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = vec;
    }
  }
  return best;
}

LogicNetlist make_c17_plus() {
  LogicNetlist net;
  const GateId i1 = net.add_input("G1", 0.5);
  const GateId i2 = net.add_input("G2", 0.5);
  const GateId i3 = net.add_input("G3", 0.5);
  const GateId i4 = net.add_input("G4", 0.5);
  const GateId i5 = net.add_input("G5", 0.5);
  // ISCAS-85 c17.
  const GateId g1 = net.add_gate(GateKind::kNand2, i1, i3);
  const GateId g2 = net.add_gate(GateKind::kNand2, i3, i4);
  const GateId g3 = net.add_gate(GateKind::kNand2, i2, g2);
  const GateId g4 = net.add_gate(GateKind::kNand2, g2, i5);
  const GateId g5 = net.add_gate(GateKind::kNand2, g1, g3);
  const GateId g6 = net.add_gate(GateKind::kNand2, g3, g4);
  // Buffered output chain (adds depth — a more realistic critical path).
  GateId t = net.add_gate(GateKind::kInv, g5);
  t = net.add_gate(GateKind::kInv, t);
  t = net.add_gate(GateKind::kBuf, t);
  (void)net.add_gate(GateKind::kOr2, t, g6);
  return net;
}

}  // namespace dh::logic
