#include "traced.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ostream>

#include "common/error.hpp"
#include "em/compact_em.hpp"
#include "em/material.hpp"
#include "pdn/pdn_grid.hpp"
#include "sched/core_model.hpp"
#include "sched/policy.hpp"
#include "sched/workload.hpp"
#include "thermal/thermal_grid.hpp"

namespace perfbench {

using namespace dh;

namespace {

const char* layer_name(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "item", "step", "sched.workload", "sched.policy", "sched.core_power",
      "thermal.solve", "device.bti", "em", "pdn.solve"};
  return kNames[layer];
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::begin(Layer layer, std::uint32_t item) {
  if (stack_.empty()) open_item_ = item;
  const std::uint32_t id = next_id_++;
  const std::uint32_t parent = open_ids_.empty() ? 0 : open_ids_.back();
  const std::int64_t t0 = now_ns();
  std::size_t slot = SIZE_MAX;
  if (spans.size() < cap_) {
    slot = spans.size();
    spans.push_back({id, parent, open_item_, layer, t0, 0});
  } else {
    ++dropped;
  }
  open_ids_.push_back(id);
  stack_.push_back({layer, slot, t0, 0});
}

void Tracer::end() {
  const std::int64_t t1 = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  open_ids_.pop_back();
  const std::int64_t dur = t1 - open.start_ns;
  self_ns[open.layer] += dur - open.child_ns;
  total_ns[open.layer] += dur;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (open.slot != SIZE_MAX) spans[open.slot].end_ns = t1;
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  bti_calls += o.bti_calls;
  thermal_solves += o.thermal_solves;
  pdn_solves += o.pdn_solves;
  pdn_factorizations += o.pdn_factorizations;
  pdn_cg_iterations += o.pdn_cg_iterations;
  em_segment_visits += o.em_segment_visits;
  em_segment_steps += o.em_segment_steps;
  quanta += o.quanta;
  recovery_quanta += o.recovery_quanta;
  return *this;
}

namespace {

using Scope = Tracer::Scope;

/// The mutable state of AgingPdn, stepped with AgingPdn::step's calls.
class PdnReplica {
 public:
  PdnReplica(pdn::PdnParams params, const em::EmMaterialParams& material)
      : grid_(std::move(params)), material_(material) {
    for (std::size_t s = 0; s < grid_.segment_count(); ++s) {
      em::CompactEmParams p;
      p.wire = grid_.params().segment_wire;
      p.material = material_;
      p.j_ref = mega_amps_per_cm2(4.0);
      p.t_ref = Celsius{105.0};
      em_.emplace_back(p);
    }
    r_ = grid_.fresh_segment_resistances(Celsius{20.0});
    immortal_.assign(grid_.segment_count(), 0);
  }

  void step(std::span<const double> loads, Celsius t, Seconds dt,
            bool reverse, Tracer& tr, LayerCounts& c) {
    const std::size_t n = grid_.segment_count();
    {
      Scope s(tr, kEm);
      for (std::size_t i = 0; i < n; ++i) r_[i] = em_[i].resistance(t).value();
    }
    {
      Scope s(tr, kPdnSolve);
      last_ = grid_.solve(loads, r_);
    }
    Scope s(tr, kEm);
    const double rho =
        grid_.params().segment_wire.resistivity_at(to_kelvin(t));
    const double blech_crit = material_.blech_threshold(rho);
    const double seg_len = grid_.params().segment_wire.length.value();
    for (std::size_t i = 0; i < n; ++i) {
      double current = last_.segment_current[i];
      if (reverse) current = -current;
      const AmpsPerM2 j = grid_.current_density(current);
      immortal_[i] = std::abs(j.value()) * seg_len < blech_crit;
      if (immortal_[i] && !em_[i].void_open()) continue;
      em_[i].step(j, t, dt);
      ++c.em_segment_steps;
    }
    c.em_segment_visits += n;
  }

  /// AgingPdn::failed() at its default 10% drop limit.
  [[nodiscard]] bool failed() const {
    if (last_.node_voltage.empty()) return false;
    for (const auto& e : em_) {
      if (e.broken()) return true;
    }
    return last_.worst_drop_v > 0.10 * grid_.params().vdd.value();
  }

  [[nodiscard]] pdn::AgingPdnStats stats() const {
    pdn::AgingPdnStats st;
    st.worst_drop_v = last_.worst_drop_v;
    st.solver_factorizations = grid_.solve_stats().factorizations;
    st.solver_cg_iterations = grid_.solve_stats().cg_iterations;
    for (std::size_t i = 0; i < em_.size(); ++i) {
      const auto& e = em_[i];
      st.max_void_len_m = std::max(st.max_void_len_m, e.void_length().value());
      if (e.void_open() || e.void_length().value() > 0.0) {
        ++st.nucleated_segments;
      }
      if (e.broken()) ++st.broken_segments;
      if (immortal_[i]) ++st.immortal_segments;
    }
    return st;
  }

  void count_solver(LayerCounts& c) const {
    c.pdn_solves += grid_.solve_stats().solves;
    c.pdn_factorizations += grid_.solve_stats().factorizations;
    c.pdn_cg_iterations += grid_.solve_stats().cg_iterations;
  }

 private:
  pdn::PdnGrid grid_;
  em::EmMaterialParams material_;
  std::vector<em::CompactEm> em_;
  std::vector<double> r_;
  std::vector<char> immortal_;
  pdn::PdnSolution last_;
};

/// Above this magnitude a sensor reading is rejected (SystemSimulator's
/// kSensorSaneLimitV).
constexpr double kSensorSaneLimitV = 0.5;

}  // namespace

sched::SystemSummary traced_fig12(const Fig12Item& item, Tracer& tr,
                                  LayerCounts& c) {
  using namespace dh::sched;
  const SystemParams p = fig12_params(item.kind, item.member);
  const std::unique_ptr<RecoveryPolicy> policy = fig12_policy(item.policy);
  const std::size_t n = p.rows * p.cols;
  thermal::ThermalGridParams tp = p.thermal;
  tp.rows = p.rows;
  tp.cols = p.cols;
  thermal::ThermalGrid thermal{tp};
  pdn::PdnParams pp = p.pdn;
  pp.rows = p.rows;
  pp.cols = p.cols;
  pp.pad_nodes.clear();
  PdnReplica pdn{pp, p.em_material};
  Rng rng{p.seed};
  std::vector<Core> cores;
  std::vector<Workload> workloads;
  for (std::size_t i = 0; i < n; ++i) {
    cores.emplace_back(p.core);
    WorkloadParams w = p.workload;
    w.phase = Seconds{w.period.value() * static_cast<double>(i) /
                      static_cast<double>(n)};
    workloads.emplace_back(w);
  }
  std::vector<double> last_good(n, 0.0);
  const Seconds dt = p.quantum;
  const auto target = static_cast<std::size_t>(
      std::ceil(years(2.0).value() / dt.value() - 1e-9));

  double now_s = 0.0;
  double demanded_acc = 0.0;
  double delivered_acc = 0.0;
  double energy_j = 0.0;
  double temp_acc = 0.0;
  double guardband = 0.0;
  double first_failure_s = -1.0;
  double final_deg = 0.0;
  std::size_t recovery_quanta = 0;
  std::vector<double> demand(n), util(n), power(n), loads(n);
  std::vector<CoreObservation> obs(n);

  for (std::size_t step = 1; step <= target; ++step) {
    Scope step_scope(tr, kStep);
    {
      Scope s(tr, kWorkload);
      for (std::size_t i = 0; i < n; ++i) {
        demand[i] = workloads[i].sample(Seconds{now_s}, rng);
      }
    }
    PolicyDecision decision;
    {
      Scope s(tr, kPolicy);
      for (std::size_t i = 0; i < n; ++i) {
        const double noise = rng.normal(0.0, p.sensor_noise.value());
        double sensed = cores[i].delta_vth().value() + noise;
        if (!std::isfinite(sensed) || std::abs(sensed) > kSensorSaneLimitV) {
          sensed = last_good[i];
        } else {
          sensed = std::max(0.0, sensed);
          last_good[i] = sensed;
        }
        obs[i].sensed_dvth = Volts{sensed};
        obs[i].temperature = thermal.temperature(i);
        obs[i].demanded_utilization = demand[i];
      }
      decision = policy->decide(obs, Seconds{now_s}, dt, rng);
    }
    DH_REQUIRE(decision.actions.size() == n, "policy returned wrong count");

    std::fill(util.begin(), util.end(), 0.0);
    double displaced = 0.0;
    std::size_t running = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (decision.actions[i] == CoreAction::kRun) {
        util[i] = demand[i];
        ++running;
      } else {
        displaced += demand[i];
      }
    }
    if (running > 0 && displaced > 0.0) {
      const double share = displaced / static_cast<double>(running);
      for (std::size_t i = 0; i < n; ++i) {
        if (decision.actions[i] == CoreAction::kRun) {
          const double add = std::min(share, 1.0 - util[i]);
          util[i] += add;
          displaced -= add;
        }
      }
    }

    {
      Scope s(tr, kCorePower);
      for (std::size_t i = 0; i < n; ++i) {
        power[i] = cores[i]
                       .power(decision.actions[i], util[i],
                              thermal.temperature(i))
                       .value();
      }
    }
    {
      Scope s(tr, kThermal);
      thermal.set_power_map(power);
      thermal.solve_steady();
    }
    ++c.thermal_solves;

    double delivered = 0.0;
    double demanded = 0.0;
    {
      Scope s(tr, kBti);
      for (std::size_t i = 0; i < n; ++i) {
        cores[i].step(decision.actions[i], util[i], thermal.temperature(i),
                      dt);
      }
    }
    c.bti_calls += n;
    for (std::size_t i = 0; i < n; ++i) {
      demanded += demand[i];
      if (decision.actions[i] == CoreAction::kRun) {
        delivered += util[i] * (1.0 - cores[i].degradation());
      }
      energy_j += power[i] * dt.value();
    }
    demanded_acc += demanded;
    delivered_acc += std::min(delivered, demanded);

    {
      Scope s(tr, kCorePower);
      for (std::size_t i = 0; i < n; ++i) {
        loads[i] = cores[i]
                       .supply_current(decision.actions[i], util[i],
                                       thermal.temperature(i))
                       .value();
      }
    }
    pdn.step(loads, thermal.max_temperature(), dt, decision.em_recovery_mode,
             tr, c);

    now_s = static_cast<double>(step) * dt.value();
    if (first_failure_s < 0.0 && pdn.failed()) first_failure_s = now_s;
    double worst_deg = 0.0;
    for (const auto& core : cores) {
      worst_deg = std::max(worst_deg, core.degradation());
    }
    guardband = std::max(guardband, worst_deg);
    final_deg = worst_deg;
    temp_acc += thermal.mean_temperature().value();
    const bool recovering =
        decision.em_recovery_mode ||
        std::any_of(decision.actions.begin(), decision.actions.end(),
                    [](CoreAction a) {
                      return a == CoreAction::kBtiActiveRecovery;
                    });
    if (recovering) ++recovery_quanta;
  }
  c.quanta += target;
  c.recovery_quanta += recovery_quanta;
  pdn.count_solver(c);

  SystemSummary s;
  s.guardband_fraction = guardband;
  s.final_degradation = final_deg;
  s.time_to_failure = Seconds{first_failure_s};
  s.mean_throughput = delivered_acc / static_cast<double>(target);
  s.availability = demanded_acc > 0.0 ? delivered_acc / demanded_acc : 1.0;
  s.energy_joules = energy_j;
  s.mean_temperature_c = temp_acc / static_cast<double>(target);
  s.recovery_quanta = recovery_quanta;
  s.pdn_stats = pdn.stats();
  return s;
}

MeshResult traced_fig11(const Fig11Item& item, Tracer& tr, LayerCounts& c) {
  PdnReplica pdn{fig11_mesh(), em::paper_calibrated_em_material()};
  const std::vector<double> loads = fig11_loads(item.member);
  MeshResult r;
  for (std::size_t h = 0; h < kFig11Hours; ++h) {
    {
      Scope s(tr, kStep);
      pdn.step(loads, Celsius{230.0}, minutes(36.0), false, tr, c);
    }
    {
      Scope s(tr, kStep);
      pdn.step(loads, Celsius{230.0}, minutes(24.0), item.protect, tr, c);
    }
    if (h + 1 == kFig11FigureHours) r.at_figure = pdn.stats();
  }
  r.at_end = pdn.stats();
  c.quanta += kFig11Steps;
  pdn.count_solver(c);
  return r;
}

namespace {

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(const pdn::AgingPdnStats& a, const pdn::AgingPdnStats& b) {
  return same(a.worst_drop_v, b.worst_drop_v) &&
         same(a.max_void_len_m, b.max_void_len_m) &&
         a.nucleated_segments == b.nucleated_segments &&
         a.broken_segments == b.broken_segments &&
         a.immortal_segments == b.immortal_segments &&
         a.solver_factorizations == b.solver_factorizations &&
         a.solver_cg_iterations == b.solver_cg_iterations;
}

}  // namespace

bool identical(const sched::SystemSummary& a, const sched::SystemSummary& b) {
  return same(a.guardband_fraction, b.guardband_fraction) &&
         same(a.final_degradation, b.final_degradation) &&
         same(a.time_to_failure.value(), b.time_to_failure.value()) &&
         same(a.mean_throughput, b.mean_throughput) &&
         same(a.availability, b.availability) &&
         same(a.energy_joules, b.energy_joules) &&
         same(a.mean_temperature_c, b.mean_temperature_c) &&
         a.recovery_quanta == b.recovery_quanta &&
         same(a.pdn_stats, b.pdn_stats);
}

bool identical(const MeshResult& a, const MeshResult& b) {
  return same(a.at_figure, b.at_figure) && same(a.at_end, b.at_end);
}

void write_spans(std::ostream& out, const std::vector<Span>& spans,
                 std::size_t thread) {
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"thread\":" << thread << ",\"item\":" << s.item
        << ",\"name\":\"" << layer_name(s.layer)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

}  // namespace perfbench
