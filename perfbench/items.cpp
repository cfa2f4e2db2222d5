#include "items.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "em/material.hpp"

namespace perfbench {

using namespace dh;

namespace {

/// Root of the seed streams of Fig. 12's members (Fig. 12's own seed).
constexpr std::uint64_t kFig12Root = 42;
constexpr std::uint64_t kFig11Root = 11;

std::string format(const char* fmt, auto... args) {
  char buf[512];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  DH_REQUIRE(n >= 0 && static_cast<std::size_t>(n) < sizeof buf,
             "result line overflow");
  return buf;
}

std::uint64_t fig12_sim_seed(std::size_t member) {
  return member == 0 ? kFig12Root : Rng::stream_seed(kFig12Root, member);
}

}  // namespace

const char* policy_name(std::size_t policy) {
  static const char* const kNames[kPolicyCount] = {
      "no-recovery", "passive-idle", "periodic-active", "adaptive-sensor",
      "dark-silicon"};
  return kNames[policy];
}

const char* kind_name(std::size_t kind) {
  static const char* const kNames[kKindCount] = {"diurnal", "bursty",
                                                 "iot-duty"};
  return kNames[kind];
}

sched::SystemParams fig12_params(std::size_t kind, std::size_t member) {
  using namespace dh::sched;
  // Fig. 12's hot chip (bench/fig12_system_schedule.cpp).
  SystemParams p;
  p.rows = 4;
  p.cols = 4;
  p.quantum = hours(6.0);
  p.workload.utilization = 0.80;
  p.workload.period = hours(24.0);
  p.core.dynamic_power_peak = Watts{2.2};
  p.thermal.ambient = Celsius{55.0};
  p.thermal.vertical_g_w_per_k = 0.07;
  p.seed = fig12_sim_seed(member);
  switch (kind) {
    case 0:
      p.workload.kind = WorkloadKind::kDiurnal;
      break;
    case 1:
      p.workload.kind = WorkloadKind::kBursty;
      p.workload.burst_switch_prob = 0.2;
      break;
    default:
      // A sensor node awake one quantum in four.
      p.workload.kind = WorkloadKind::kPeriodic;
      p.workload.duty = 0.25;
      break;
  }
  return p;
}

std::unique_ptr<sched::RecoveryPolicy> fig12_policy(std::size_t policy) {
  using namespace dh::sched;
  // Fig. 12's table, with its parameters.
  switch (policy) {
    case 0:
      return make_no_recovery_policy();
    case 1:
      return make_passive_idle_policy();
    case 2:
      return make_periodic_active_policy({.period = hours(24.0),
                                          .bti_recovery_fraction = 0.25,
                                          .em_recovery_duty = 0.2});
    case 3:
      return make_adaptive_sensor_policy({.threshold = Volts{0.005},
                                          .release = Volts{0.002},
                                          .em_recovery_duty = 0.2});
    default:
      return make_dark_silicon_policy({.spares = 2,
                                       .rotation_period = hours(6.0),
                                       .em_recovery_duty = 0.2});
  }
}

sched::SystemSummary run_fig12(const Fig12Item& item) {
  sched::SystemSimulator sim{fig12_params(item.kind, item.member),
                             fig12_policy(item.policy)};
  sim.run(years(2.0));
  return sim.summary();
}

std::string fig12_key(const Fig12Item& item) {
  return format("%s/%s/m%02zu", policy_name(item.policy),
                kind_name(item.kind), item.member);
}

std::string fig12_line(const Fig12Item&, const sched::SystemSummary& s) {
  return format(
      "guardband=%.6e final=%.6e ttf_s=%.6e throughput=%.6e "
      "availability=%.6e energy_j=%.6e temp_c=%.6e recovery_quanta=%zu "
      "voids=%zu broken=%zu worst_drop_v=%.6e max_void_m=%.6e",
      s.guardband_fraction, s.final_degradation, s.time_to_failure.value(),
      s.mean_throughput, s.availability, s.energy_joules,
      s.mean_temperature_c, s.recovery_quanta,
      s.pdn_stats.nucleated_segments, s.pdn_stats.broken_segments,
      s.pdn_stats.worst_drop_v, s.pdn_stats.max_void_len_m);
}

pdn::PdnParams fig11_mesh() {
  pdn::PdnParams p;  // the default 8x8 local mesh of Fig. 11
  p.rows = 8;
  p.cols = 8;
  return p;
}

std::vector<double> fig11_loads(std::size_t member) {
  const std::size_t n = fig11_mesh().rows * fig11_mesh().cols;
  std::vector<double> loads(n, 0.003);
  if (member == 0) return loads;
  Rng rng = Rng::stream(kFig11Root, member);
  for (double& l : loads) l = rng.uniform(1.5e-3, 4.5e-3);
  return loads;
}

MeshResult run_fig11(const Fig11Item& item) {
  // Fig. 11's compressed protocol (bench/fig11_pdn_layers.cpp).
  pdn::AgingPdn pdn{fig11_mesh(), em::paper_calibrated_em_material()};
  const std::vector<double> loads = fig11_loads(item.member);
  MeshResult r;
  for (std::size_t h = 0; h < kFig11Hours; ++h) {
    pdn.step(loads, Celsius{230.0}, minutes(36.0), false);
    pdn.step(loads, Celsius{230.0}, minutes(24.0), item.protect);
    if (h + 1 == kFig11FigureHours) r.at_figure = pdn.stats();
  }
  r.at_end = pdn.stats();
  return r;
}

std::string fig11_key(const Fig11Item& item) {
  return format("map%02zu/%s", item.member,
                item.protect ? "protected" : "unprotected");
}

std::string fig11_line(const Fig11Item&, const MeshResult& r) {
  const auto part = [](const char* tag, const pdn::AgingPdnStats& s) {
    return format(
        "%s broken=%zu nucleated=%zu immortal=%zu max_void_m=%.6e "
        "worst_drop_v=%.6e",
        tag, s.broken_segments, s.nucleated_segments, s.immortal_segments,
        s.max_void_len_m, s.worst_drop_v);
  };
  return part("h48", r.at_figure) + " " + part("end", r.at_end);
}

std::string fig11_figure_line(bool protect,
                              const pdn::AgingPdnStats& at_figure) {
  return format("  %s %zu broken, max void %.1f nm",
                protect ? "protected:  " : "unprotected:",
                at_figure.broken_segments, at_figure.max_void_len_m * 1e9);
}

const std::vector<PaperBench>& paper_benches() {
  static const std::vector<PaperBench> kBenches = {
      {"table1_bti_recovery", "device.table1_ms"},
      {"fig4_bti_permanent", "device.fig4_ms"},
      {"fig5_em_stress_recovery", "em.fig5_ms"},
      {"fig6_em_early_recovery", "em.fig6_ms"},
      {"fig7_em_periodic", "em.fig7_ms"},
      {"fig9_assist_circuit", "circuit.fig9_ms"},
      {"fig10_load_size", "circuit.fig10_ms"},
      {"fig11_pdn_layers", "pdn.fig11_ms"},
      {"ablation_ac_frequency", "em.ablation_ac_ms"},
      {"ablation_compact_models", "device.ablation_compact_ms"},
      {"sram_recovery_boost", "sram.boost_ms"},
      {"logic_aging_sta", "logic.sta_ms"},
      {"em_population_ttf", "em.population_ttf_ms"},
  };
  return kBenches;
}

std::string strip_pool_lines(const std::string& out) {
  std::istringstream in(out);
  std::string kept;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("[pool]", 0) == 0 &&
        line.find("wall time") != std::string::npos) {
      continue;
    }
    kept += line;
    kept += '\n';
  }
  return kept;
}

std::vector<std::size_t> shuffled(std::uint64_t seed, std::uint64_t stream,
                                  std::size_t n) {
  // Fisher-Yates on the raw engine: mt19937_64 output is fixed by the
  // standard, so the order does not depend on the standard library.
  Rng rng = Rng::stream(seed, stream);
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(v[i - 1], v[rng.engine()() % i]);
  }
  return v;
}

std::vector<std::size_t> pick_members(std::uint64_t seed, std::uint64_t stream,
                                      std::size_t pool, std::size_t count) {
  DH_REQUIRE(count >= 1 && count <= pool, "bad member count");
  const std::vector<std::size_t> order = shuffled(seed, stream, pool - 1);
  std::vector<std::size_t> members{0};
  for (std::size_t i = 0; i + 1 < count; ++i) members.push_back(order[i] + 1);
  return members;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::map<std::string, std::string> read_line_refs(const std::string& path) {
  std::istringstream in(read_file(path));
  std::map<std::string, std::string> refs;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos) throw Error("malformed line in " + path);
    refs[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return refs;
}

}  // namespace perfbench
