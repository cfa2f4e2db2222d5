// Benchmark runner: runs one workload as a closed-loop batch on a fixed
// number of threads, checks every item against the committed references,
// and prints the metrics. Run it through run.py, which builds it and
// cleans the environment; see README.md.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --root REPO --bin DIR --out DIR [--write-refs]
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "items.hpp"
#include "traced.hpp"

extern char** environ;

namespace perfbench {
namespace {

using dh::Error;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string root = ".";
  std::string bin;
  std::string out;
  std::size_t threads = 0;
  bool write_refs = false;
};

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// CPU time of the calling thread.
double thread_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

/// Peak resident memory of this process (VmHWM: getrusage's ru_maxrss
/// carries the launching process's peak across exec) or of the largest
/// bench binary it ran.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  double self_kb = 0.0;
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      self_kb = std::strtod(line.c_str() + 6, nullptr);
    }
  }
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return std::max(self_kb, static_cast<double>(kids.ru_maxrss)) / 1024.0;
}

/// Linear-interpolated quantile (q in [0,1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- item bookkeeping ---------------------------------------------------

struct Failures {
  std::mutex mu;
  std::size_t count = 0;
  std::vector<std::string> messages;  // the first few, for the log

  void add(const std::string& msg) {
    std::lock_guard<std::mutex> lock(mu);
    ++count;
    if (messages.size() < 8) messages.push_back(msg);
  }
};

/// Runs one item, catching what it throws; returns its result line or an
/// empty string after recording the failure.
std::string guarded(const std::string& key, Failures& failures,
                    const std::function<std::string()>& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    failures.add(key + ": threw: " + e.what());
  }
  return {};
}

void check_line(const std::map<std::string, std::string>& refs,
                const std::string& key, const std::string& line,
                Failures& failures) {
  if (line.empty()) return;  // already counted as thrown
  const auto it = refs.find(key);
  if (it == refs.end()) {
    failures.add(key + ": no reference");
  } else if (it->second != line) {
    failures.add(key + ": got  " + line + "\n      want " + it->second);
  }
}

// ---- the closed loop ----------------------------------------------------

/// Timings of the passes of one run. A pass runs the seed's item list once
/// through the pool: each thread takes the next item when it frees up.
struct PassLog {
  std::vector<double> pass_wall_s;
  std::vector<double> pass_cpu_s;  // sum of the pass's item CPU times
  std::vector<double> item_ms;     // item CPU times
  double busy_s = 0.0;             // sum of item wall times
  std::size_t items = 0;
};

/// Runs item i and returns its CPU seconds: the thread's for an item run
/// in-process, the bench binary's for a paper figure. CPU time, unlike
/// wall time, leaves out hypervisor steal and wake-up latency, which made
/// per-item wall times of the few-ms binaries spread by up to 27% from
/// run to run.
using ItemFn = std::function<double(std::size_t)>;

void run_pass(dh::ThreadPool& pool, std::size_t n, const ItemFn& item,
              PassLog& log) {
  std::vector<double> wall_ms(n, 0.0);
  std::vector<double> cpu_ms(n, 0.0);
  const std::int64_t t0 = now_ns();
  pool.parallel_for(n, [&](std::size_t i) {
    const std::int64_t s = now_ns();
    cpu_ms[i] = item(i) * 1e3;
    wall_ms[i] = static_cast<double>(now_ns() - s) * 1e-6;
  });
  log.pass_wall_s.push_back(seconds_since(t0));
  double cpu_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    log.busy_s += wall_ms[i] * 1e-3;
    cpu_s += cpu_ms[i] * 1e-3;
  }
  log.pass_cpu_s.push_back(cpu_s);
  log.item_ms.insert(log.item_ms.end(), cpu_ms.begin(), cpu_ms.end());
  log.items += n;
}

/// Passes until `seconds` have gone by (at least two).
void run_passes(dh::ThreadPool& pool, std::size_t n, double seconds,
                const ItemFn& item, PassLog& log,
                const std::function<void()>& after_pass = {}) {
  const std::int64_t t0 = now_ns();
  do {
    run_pass(pool, n, item, log);
    if (after_pass) after_pass();
  } while (log.pass_wall_s.size() < 2 || seconds_since(t0) < seconds);
}

// ---- metrics output -----------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i) os << ", ";
      os << "\"" << rows_[i].name << "\": {\"value\": " << rows_[i].value
         << ", \"unit\": \"" << rows_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }
  void print() const {
    for (const auto& r : rows_) {
      std::printf("  %-28s %14.6g %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, m.json().c_str());
}

void end_to_end(Metrics& m, const std::vector<double>& setup_s,
                const PassLog& log, std::size_t items_per_pass) {
  std::printf("pass wall times (s):");
  for (double w : log.pass_wall_s) std::printf(" %.4f", w);
  std::printf("\nset-up times (s):");
  for (double w : setup_s) std::printf(" %.4f", w);
  std::printf("\n");
  m.add("setup_s", median(setup_s), "s");
  m.add("wall_s", median(log.pass_wall_s), "s");
  m.add("cpu_s", median(log.pass_cpu_s), "s");
  m.add("item_ms.p50", quantile(log.item_ms, 0.5), "ms");
  m.add("item_ms.p90", quantile(log.item_ms, 0.9), "ms");
  m.add("items_per_s",
        static_cast<double>(items_per_pass) / median(log.pass_wall_s), "1/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_failures(const Failures& f, std::size_t attempted) {
  std::printf("failed_frac %.6g (%zu of %zu items)\n",
              attempted ? static_cast<double>(f.count) /
                              static_cast<double>(attempted)
                        : 0.0,
              f.count, attempted);
  for (const auto& msg : f.messages) std::printf("  FAIL %s\n", msg.c_str());
}

// ---- per-layer (traced) helpers ----------------------------------------

/// Per-pass totals of the traced loops, merged over threads.
struct TracedPass {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::int64_t, kLayerCount> total_ns{};
  LayerCounts counts;
  double untraced_s = 0.0;  // the same items through the program
  double traced_s = 0.0;
};

/// Spans kept per thread for the span file (about half a fig12 lifetime);
/// the self times count every span.
constexpr std::size_t kSpanCap = 16384;

/// Per-thread tracers, indexed by a thread slot claimed on first use.
class TracerSet {
 public:
  TracerSet(std::size_t threads, std::size_t span_cap) {
    for (std::size_t i = 0; i < threads; ++i) tracers_.emplace_back(span_cap);
    counts_.resize(threads);
    untraced_s_.assign(threads, 0.0);
    traced_s_.assign(threads, 0.0);
  }
  std::size_t slot() {
    thread_local std::size_t mine = SIZE_MAX;
    thread_local const TracerSet* owner = nullptr;
    if (owner != this) {
      mine = next_.fetch_add(1);
      owner = this;
      DH_REQUIRE(mine < tracers_.size(), "more threads than tracers");
    }
    return mine;
  }
  Tracer& tracer(std::size_t s) { return tracers_[s]; }
  LayerCounts& counts(std::size_t s) { return counts_[s]; }
  double& untraced_s(std::size_t s) { return untraced_s_[s]; }
  double& traced_s(std::size_t s) { return traced_s_[s]; }

  /// Totals since the previous call.
  TracedPass take_pass() {
    TracedPass p;
    for (std::size_t t = 0; t < tracers_.size(); ++t) {
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        p.self_ns[l] += tracers_[t].self_ns[l];
        p.total_ns[l] += tracers_[t].total_ns[l];
      }
      tracers_[t].self_ns = {};
      tracers_[t].total_ns = {};
      p.counts += counts_[t];
      counts_[t] = {};
      p.untraced_s += untraced_s_[t];
      p.traced_s += traced_s_[t];
      untraced_s_[t] = traced_s_[t] = 0.0;
    }
    return p;
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw Error("cannot write " + path);
    std::size_t dropped = 0;
    for (std::size_t t = 0; t < tracers_.size(); ++t) {
      write_spans(out, tracers_[t].spans, t);
      dropped += tracers_[t].dropped;
    }
    out << "{\"dropped_spans\":" << dropped << "}\n";
    if (!out) throw Error("write failed: " + path);
  }

 private:
  std::vector<Tracer> tracers_;
  std::vector<LayerCounts> counts_;
  std::vector<double> untraced_s_;
  std::vector<double> traced_s_;
  std::atomic<std::size_t> next_{0};
};

/// Every per-layer metric, zero where the workload never calls the layer.
void per_layer(Metrics& m, const std::vector<TracedPass>& passes,
               std::size_t threads, const PassLog& log, bool identical,
               double obs_metrics_pct, double obs_trace_pct,
               const std::map<std::string, double>& paper_ms) {
  const auto med = [&](auto fn) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(fn(p));
    return median(v);
  };
  const auto self_ms = [&](Layer l) {
    return med([l](const TracedPass& p) {
      return static_cast<double>(p.self_ns[l]) * 1e-6;
    });
  };
  const LayerCounts c = passes.empty() ? LayerCounts{} : passes.front().counts;
  const auto per = [](double ms, std::uint64_t n) {
    return n ? ms * 1e6 / static_cast<double>(n) : 0.0;
  };
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const double bti_ms = self_ms(kBti);
  const double solve_ms = self_ms(kPdnSolve);
  m.add("device.bti.self_ms", bti_ms, "ms");
  m.add("device.bti.calls", static_cast<double>(c.bti_calls), "count");
  m.add("device.bti.ns_per_call", per(bti_ms, c.bti_calls), "ns");
  m.add("pdn.solve.self_ms", solve_ms, "ms");
  m.add("pdn.solves", static_cast<double>(c.pdn_solves), "count");
  m.add("pdn.factorizations", static_cast<double>(c.pdn_factorizations),
        "count");
  m.add("pdn.refactor_ratio", ratio(c.pdn_factorizations, c.pdn_solves),
        "ratio");
  m.add("pdn.cg_iterations", static_cast<double>(c.pdn_cg_iterations),
        "count");
  m.add("pdn.cg_iters_per_solve", ratio(c.pdn_cg_iterations, c.pdn_solves),
        "ratio");
  m.add("pdn.ns_per_solve", per(solve_ms, c.pdn_solves), "ns");
  m.add("em.self_ms", self_ms(kEm), "ms");
  m.add("em.segment_steps", static_cast<double>(c.em_segment_steps), "count");
  m.add("em.blech_skip_ratio",
        ratio(c.em_segment_visits - c.em_segment_steps, c.em_segment_visits),
        "ratio");
  m.add("thermal.solve.self_ms", self_ms(kThermal), "ms");
  m.add("thermal.solves", static_cast<double>(c.thermal_solves), "count");
  m.add("sched.workload.self_ms", self_ms(kWorkload), "ms");
  m.add("sched.policy.self_ms", self_ms(kPolicy), "ms");
  m.add("sched.core_power.self_ms", self_ms(kCorePower), "ms");
  m.add("sched.glue.self_ms", self_ms(kStep), "ms");
  m.add("sched.quanta", static_cast<double>(c.quanta), "count");
  m.add("sched.recovery_quanta", static_cast<double>(c.recovery_quanta),
        "count");
  m.add("obs.metrics_overhead_pct", obs_metrics_pct, "%");
  m.add("obs.dh_trace_overhead_pct", obs_trace_pct, "%");
  double wall = 0.0;
  for (double w : log.pass_wall_s) wall += w;
  m.add("parallel.busy_frac",
        wall > 0.0 ? log.busy_s / (static_cast<double>(threads) * wall) : 0.0,
        "ratio");
  for (const auto& b : paper_benches()) {
    const auto it = paper_ms.find(b.binary);
    m.add(b.metric, it == paper_ms.end() ? 0.0 : it->second, "ms");
  }
  m.add("trace.identical", identical ? 1.0 : 0.0, "bool");
  m.add("trace.overhead_pct",
        med([](const TracedPass& p) {
          return p.untraced_s > 0.0
                     ? 100.0 * (p.traced_s / p.untraced_s - 1.0)
                     : 0.0;
        }),
        "%");
  // Share of the traced time the layer spans cover: spans vs item time,
  // or for paper_figures (no replay) binaries vs pass wall time.
  const double span_coverage = med([](const TracedPass& p) {
    std::int64_t covered = 0;
    for (std::size_t l = kStep; l < kLayerCount; ++l) covered += p.self_ns[l];
    return p.total_ns[kItem] > 0 ? static_cast<double>(covered) /
                                       static_cast<double>(p.total_ns[kItem])
                                 : 0.0;
  });
  const double binary_coverage = wall > 0.0 ? log.busy_s / wall : 0.0;
  m.add("trace.coverage", passes.empty() ? binary_coverage : span_coverage,
        "ratio");
}

// ---- fig12_policy_sweep -------------------------------------------------

struct Fig12Workload {
  std::unique_ptr<dh::ThreadPool> pool;
  std::vector<std::size_t> members;
  std::vector<Fig12Item> items;  // one pass, in seed order
  std::map<std::string, std::string> refs;
  std::string table_ref;
};

Fig12Workload setup_fig12(const Options& o) {
  Fig12Workload w;
  w.members = pick_members(o.seed, 1, kFig12Pool, kFig12Members);
  std::vector<Fig12Item> all;
  for (std::size_t m : w.members) {
    for (std::size_t k = 0; k < kKindCount; ++k) {
      for (std::size_t p = 0; p < kPolicyCount; ++p) all.push_back({p, k, m});
    }
  }
  for (std::size_t i : shuffled(o.seed, 2, all.size())) {
    w.items.push_back(all[i]);
  }
  w.refs = read_line_refs(o.root + "/perfbench/ref/fig12_items.tsv");
  w.table_ref = read_file(o.root + "/perfbench/ref/fig12_table.txt");
  w.pool = std::make_unique<dh::ThreadPool>(o.threads);
  // Warm-up: Fig. 12's periodic-active lifetime, on this thread. On every
  // pool thread it would time the slowest of four (41% spread vs 7%).
  (void)run_fig12({2, 0, 0});
  return w;
}

double field(const std::string& line, const std::string& name) {
  const auto at = line.find(name + "=");
  DH_REQUIRE(at != std::string::npos, "result line lacks " + name);
  return std::strtod(line.c_str() + at + name.size() + 1, nullptr);
}

/// Seed spread per policy x kind over the pass's members: p5/p50/p95 of
/// guardband margin vs no recovery (same member and kind), availability
/// and energy, computed from result lines at their printed precision.
std::string spread_report(const std::vector<std::size_t>& members,
                          const std::function<std::string(const Fig12Item&)>&
                              line_of) {
  std::string out;
  char buf[256];
  for (std::size_t k = 0; k < kKindCount; ++k) {
    for (std::size_t p = 0; p < kPolicyCount; ++p) {
      std::vector<double> margin, avail, energy;
      for (std::size_t m : members) {
        const std::string line = line_of({p, k, m});
        const std::string base = line_of({0, k, m});
        if (line.empty() || base.empty()) return "(incomplete)\n";
        margin.push_back(100.0 *
                         (1.0 - field(line, "guardband") /
                                    field(base, "guardband")));
        avail.push_back(100.0 * field(line, "availability"));
        energy.push_back(field(line, "energy_j") / 1e6);
      }
      std::snprintf(
          buf, sizeof buf,
          "  %-15s %-8s margin%% %7.2f %7.2f %7.2f  avail%% %6.2f %6.2f "
          "%6.2f  energy_MJ %7.1f %7.1f %7.1f\n",
          policy_name(p), kind_name(k), quantile(margin, 0.05),
          quantile(margin, 0.5), quantile(margin, 0.95),
          quantile(avail, 0.05), quantile(avail, 0.5), quantile(avail, 0.95),
          quantile(energy, 0.05), quantile(energy, 0.5),
          quantile(energy, 0.95));
      out += buf;
    }
  }
  return out;
}

/// Fig. 12's table, as bench/fig12_system_schedule prints it.
std::string fig12_table(const std::function<std::string(const Fig12Item&)>&
                            summary_line) {
  static const char* const kLabels[kPolicyCount] = {
      "worst-case (no recovery)", "passive idle only", "periodic active (25%)",
      "adaptive sensor-driven", "dark-silicon rotation"};
  dh::Table table({"policy", "guardband", "margin vs worst-case",
                   "availability", "throughput", "PDN voids", "energy (MJ)"});
  double worst_case = 0.0;
  for (std::size_t p = 0; p < kPolicyCount; ++p) {
    const std::string line = summary_line({p, 0, 0});
    if (line.empty()) return "(missing)";
    const double g = field(line, "guardband");
    if (worst_case == 0.0) worst_case = g;
    table.add_row(
        {kLabels[p], dh::Table::pct(g, 2),
         dh::Table::num(100.0 * (1.0 - g / worst_case), 0) + "% smaller",
         dh::Table::pct(field(line, "availability"), 1),
         dh::Table::num(field(line, "throughput"), 2),
         std::to_string(static_cast<std::size_t>(field(line, "voids"))),
         dh::Table::num(field(line, "energy_j") / 1e6, 0)});
  }
  std::ostringstream os;
  table.print(os);
  return os.str();
}

/// Prices the program's telemetry on one fig12 item: obs off vs the
/// default, and the default vs a JSONL trace sink, in paired blocks that
/// rotate the mode order. Single-threaded (the switches are global).
bool price_obs(const Options& o, double& metrics_pct, double& trace_pct) {
  namespace fs = std::filesystem;
  const Fig12Item item{2, 0, 0};  // periodic active, Fig. 12's load
  const fs::path dir = fs::path(o.out) / ("obs-" + std::to_string(getpid()));
  fs::create_directories(dir);
  constexpr int kBlocks = 7;
  std::vector<double> m_ratio, t_ratio;
  bool same = true;
  dh::sched::SystemSummary first{};
  for (int b = 0; b < kBlocks; ++b) {
    double ms[3] = {0.0, 0.0, 0.0};
    for (int k = 0; k < 3; ++k) {
      const int mode = (b + k) % 3;
      dh::obs::set_enabled(mode != 0);
      if (mode == 2) {
        dh::obs::set_trace_sink(std::make_unique<dh::obs::JsonlTraceSink>(
            (dir / "trace.jsonl").string()));
      }
      const std::int64_t t0 = now_ns();
      const dh::sched::SystemSummary s = run_fig12(item);
      ms[mode] = static_cast<double>(now_ns() - t0) * 1e-6;
      dh::obs::set_trace_sink(nullptr);
      if (b == 0 && k == 0) first = s;
      same = same && identical(first, s);
    }
    m_ratio.push_back(ms[1] / ms[0]);
    t_ratio.push_back(ms[2] / ms[1]);
  }
  dh::obs::set_enabled(true);
  fs::remove_all(dir);
  metrics_pct = 100.0 * (median(m_ratio) - 1.0);
  trace_pct = 100.0 * (median(t_ratio) - 1.0);
  std::printf("obs pricing (%d paired blocks of '%s'): metrics %+.2f%%, "
              "JSONL trace %+.2f%%, results identical: %s\n",
              kBlocks, fig12_key(item).c_str(), metrics_pct, trace_pct,
              same ? "yes" : "NO");
  return same;
}

/// What a simulation workload (fig12, fig11) runs for each item.
template <typename Item, typename Result>
struct SimFns {
  Result (*run)(const Item&);  // through the program
  Result (*traced)(const Item&, Tracer&, LayerCounts&);
  std::string (*key)(const Item&);
  std::string (*line)(const Item&, const Result&);
};

template <typename Result>
struct SimRun {
  explicit SimRun(std::size_t n) : lines(n), results(n) {}
  std::vector<std::string> lines;  // of the last pass, by item
  std::vector<Result> results;
  PassLog log;
  std::vector<TracedPass> traced;  // per pass
  std::atomic<bool> identical{true};
  Failures failures;
};

/// Passes over the items. Untraced, each item runs through the program.
/// Traced, each item runs through the program and through the traced
/// loop, and the two results must match bit for bit.
template <typename Item, typename Result>
void run_sim(const Options& o, dh::ThreadPool& pool,
             const std::vector<Item>& items,
             const std::map<std::string, std::string>& refs,
             const SimFns<Item, Result>& fn, TracerSet& tracers,
             SimRun<Result>& r) {
  const auto item = [&](std::size_t i) {
    const double cpu0 = thread_cpu_seconds();
    const Item& it = items[i];
    const std::string key = fn.key(it);
    r.lines[i] = guarded(key, r.failures, [&] {
      if (!o.trace) {
        r.results[i] = fn.run(it);
        return fn.line(it, r.results[i]);
      }
      const std::size_t slot = tracers.slot();
      Tracer& tr = tracers.tracer(slot);
      std::int64_t t0 = now_ns();
      r.results[i] = fn.run(it);
      tracers.untraced_s(slot) += seconds_since(t0);
      t0 = now_ns();
      LayerCounts c;
      Result replay;
      {
        Tracer::Scope item_span(tr, kItem, static_cast<std::uint32_t>(i));
        replay = fn.traced(it, tr, c);
      }
      tracers.traced_s(slot) += seconds_since(t0);
      tracers.counts(slot) += c;
      if (!identical(r.results[i], replay)) {
        r.identical = false;
        r.failures.add(key + ": traced loop differs from the program");
      }
      return fn.line(it, r.results[i]);
    });
    check_line(refs, key, r.lines[i], r.failures);
    return thread_cpu_seconds() - cpu0;
  };
  if (o.trace) {
    run_passes(pool, items.size(), o.seconds, item, r.log,
               [&] { r.traced.push_back(tracers.take_pass()); });
  } else {
    run_passes(pool, items.size(), o.seconds, item, r.log);
  }
}

/// Prints the metrics and the result line of a simulation workload.
template <typename Result>
int finish_sim(const Options& o, std::size_t threads, SimRun<Result>& r,
               const TracerSet& tracers, const std::vector<double>& setup_s,
               bool correct, std::size_t quanta_per_item,
               double obs_metrics_pct, double obs_trace_pct) {
  Metrics m;
  if (o.trace) {
    tracers.write(o.out + "/spans-" + o.workload + "-seed" +
                  std::to_string(o.seed) + ".jsonl");
    for (const auto& p : r.traced) {
      if (!(p.counts == r.traced.front().counts)) {
        correct = false;
        std::printf("FAIL: layer counts differ between passes\n");
      }
    }
    per_layer(m, r.traced, threads, r.log, r.identical, obs_metrics_pct,
              obs_trace_pct, {});
  } else {
    end_to_end(m, setup_s, r.log, r.lines.size());
    std::printf("sim_quanta_per_s %.6g (simulated quanta or mesh steps per "
                "host second, %zu per item)\n",
                static_cast<double>(quanta_per_item * r.lines.size()) /
                    median(r.log.pass_wall_s),
                quanta_per_item);
  }
  std::printf("passes %zu, items %zu, threads %zu\n",
              r.log.pass_wall_s.size(), r.log.items, threads);
  m.print();
  report_failures(r.failures, r.log.items);
  print_result(correct && r.failures.count == 0, r.log.items,
               r.failures.count, m);
  return 0;
}

int run_fig12_workload(const Options& o, Fig12Workload& w,
                       const std::vector<double>& setup_s) {
  const std::size_t n = w.items.size();
  std::printf("fig12_policy_sweep: %zu policies x %zu kinds x %zu members = "
              "%zu lifetimes of %zu quanta per pass; members:",
              kPolicyCount, kKindCount, w.members.size(), n, kFig12Quanta);
  for (std::size_t m : w.members) std::printf(" %zu", m);
  std::printf("\n");
  SimRun<dh::sched::SystemSummary> r(n);
  TracerSet tracers(o.threads, kSpanCap);
  run_sim(o, *w.pool, w.items, w.refs,
          SimFns<Fig12Item, dh::sched::SystemSummary>{
              run_fig12, traced_fig12, fig12_key, fig12_line},
          tracers, r);

  // Checks on the pass's combined output.
  bool correct = true;
  std::map<std::string, std::string> live;
  for (std::size_t i = 0; i < n; ++i) live[fig12_key(w.items[i])] = r.lines[i];
  const auto from = [](const std::map<std::string, std::string>& src) {
    return [&src](const Fig12Item& it) {
      const auto f = src.find(fig12_key(it));
      return f == src.end() ? std::string{} : f->second;
    };
  };
  const std::string table = fig12_table(from(live));
  std::printf("Fig. 12 table from the seed-42 diurnal members:\n%s",
              table.c_str());
  if (table != w.table_ref) {
    correct = false;
    std::printf("FAIL: differs from Fig. 12's table (ref/fig12_table.txt)\n");
  }
  const std::string spread = spread_report(w.members, from(live));
  std::printf("seed spread over %zu members (p5 p50 p95):\n%s",
              w.members.size(), spread.c_str());
  if (spread != spread_report(w.members, from(w.refs))) {
    correct = false;
    std::printf("FAIL: seed spread differs from the one the references give\n");
  }
  std::printf("median item ms by policy x kind:");
  for (std::size_t k = 0; k < kKindCount; ++k) {
    for (std::size_t p = 0; p < kPolicyCount; ++p) {
      std::vector<double> v;
      for (std::size_t i = 0; i < r.log.item_ms.size(); ++i) {
        const Fig12Item& it = w.items[i % n];
        if (it.policy == p && it.kind == k) v.push_back(r.log.item_ms[i]);
      }
      std::printf("%s %s/%s %.1f", p == 0 ? "\n " : "", policy_name(p),
                  kind_name(k), median(v));
    }
  }
  std::printf("\n");

  double metrics_pct = 0.0;
  double trace_pct = 0.0;
  if (o.trace) correct = price_obs(o, metrics_pct, trace_pct) && correct;
  return finish_sim(o, o.threads, r, tracers, setup_s, correct, kFig12Quanta,
                    metrics_pct, trace_pct);
}

// ---- fig11_mesh_aging ---------------------------------------------------

struct Fig11Workload {
  std::unique_ptr<dh::ThreadPool> pool;
  std::vector<std::size_t> members;
  std::vector<Fig11Item> items;
  std::map<std::string, std::string> refs;
  std::string figure_ref;  // fig11_pdn_layers' printed output
};

Fig11Workload setup_fig11(const Options& o) {
  Fig11Workload w;
  w.members = pick_members(o.seed, 3, kFig11Pool, kFig11Members);
  std::vector<Fig11Item> all;
  for (std::size_t m : w.members) {
    all.push_back({m, false});
    all.push_back({m, true});
  }
  for (std::size_t i : shuffled(o.seed, 4, all.size())) {
    w.items.push_back(all[i]);
  }
  w.refs = read_line_refs(o.root + "/perfbench/ref/fig11_items.tsv");
  w.figure_ref =
      read_file(o.root + "/perfbench/ref/paper/fig11_pdn_layers.txt");
  w.pool = std::make_unique<dh::ThreadPool>(o.threads);
  // Warm-up: Fig. 11's unprotected mesh eight times per thread, on the
  // pool. On one thread this set-up landed ~35% apart from one process
  // to the next (25% spread over 10 runs vs 14% on the pool).
  w.pool->parallel_for(8 * o.threads, [](std::size_t) {
    (void)run_fig11({0, false});
  });
  return w;
}

int run_fig11_workload(const Options& o, Fig11Workload& w,
                       const std::vector<double>& setup_s) {
  const std::size_t n = w.items.size();
  std::printf("fig11_mesh_aging: %zu load maps x {unprotected, protected} = "
              "%zu mesh runs of %zu steps per pass\n",
              w.members.size(), n, kFig11Steps);
  SimRun<MeshResult> r(n);
  TracerSet tracers(o.threads, kSpanCap);
  run_sim(o, *w.pool, w.items, w.refs,
          SimFns<Fig11Item, MeshResult>{run_fig11, traced_fig11, fig11_key,
                                        fig11_line},
          tracers, r);

  bool correct = true;
  std::printf("per item (broken segments and worst IR drop at hour %zu and "
              "hour %zu):\n",
              kFig11FigureHours, kFig11Hours);
  for (std::size_t i = 0; i < n; ++i) {
    if (r.lines[i].empty()) continue;
    const auto& a = r.results[i].at_figure;
    const auto& e = r.results[i].at_end;
    std::printf("  %-16s %3zu broken, drop %.4g V | %3zu broken, drop %.4g V\n",
                fig11_key(w.items[i]).c_str(), a.broken_segments,
                a.worst_drop_v, e.broken_segments, e.worst_drop_v);
    if (w.items[i].member == 0) {
      const std::string fl = fig11_figure_line(w.items[i].protect, a);
      std::printf("    Fig. 11 line: '%s'\n", fl.c_str());
      if (w.figure_ref.find(fl + "\n") == std::string::npos) {
        correct = false;
        std::printf("FAIL: not in fig11_pdn_layers' output\n");
      }
    }
  }
  return finish_sim(o, o.threads, r, tracers, setup_s, correct, kFig11Steps,
                    0.0, 0.0);
}

// ---- paper_figures ------------------------------------------------------

/// This process's environment plus DH_THREADS=1 for the bench binaries.
/// They run single-threaded: with a pool per binary, a run of
/// sram_recovery_boost varies 3-8x with the load on the machine.
class ChildEnv {
 public:
  ChildEnv() {
    for (char** e = environ; *e != nullptr; ++e) vars_.emplace_back(*e);
    vars_.emplace_back("DH_THREADS=1");
  }
  char** envp() {
    ptrs_.clear();
    for (auto& v : vars_) ptrs_.push_back(v.data());
    ptrs_.push_back(nullptr);
    return ptrs_.data();
  }

 private:
  std::vector<std::string> vars_;
  std::vector<char*> ptrs_;
};

/// Runs a binary with stdout captured (stderr passes through); returns
/// its exit status and sets `cpu_s` to its user+sys CPU time.
int run_binary(const std::string& path, char** envp, std::string& out,
               double& cpu_s) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw Error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  char* argv[] = {const_cast<char*>(path.c_str()), nullptr};
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, path.c_str(), &fa, nullptr, argv, envp);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw Error("cannot start " + path + ": " + std::strerror(rc));
  }
  // Poll instead of blocking: a blocked reader on an idle vCPU wakes up
  // late and by a varying amount, which swamped the few-ms binaries.
  fcntl(fds[0], F_SETFL, fcntl(fds[0], F_GETFL) | O_NONBLOCK);
  char buf[65536];
  for (;;) {
    const ssize_t got = read(fds[0], buf, sizeof buf);
    if (got > 0) {
      out.append(buf, static_cast<std::size_t>(got));
    } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
      break;
    } else {
      std::this_thread::yield();
    }
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  for (;;) {
    const pid_t done = wait4(pid, &status, WNOHANG, &ru);
    if (done == pid || (done < 0 && errno != EINTR)) break;
    std::this_thread::yield();
  }
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  cpu_s = tv(ru.ru_utime) + tv(ru.ru_stime);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

struct PaperWorkload {
  std::vector<std::size_t> order;  // indices into paper_benches()
  std::vector<std::string> refs;   // by paper_benches() index
  ChildEnv env;
};

PaperWorkload setup_paper(const Options& o) {
  PaperWorkload w;
  w.order = shuffled(o.seed, 5, paper_benches().size());
  for (const auto& b : paper_benches()) {
    const std::string bin = o.bin + "/" + b.binary;
    if (access(bin.c_str(), X_OK) != 0) throw Error("missing binary " + bin);
    w.refs.push_back(strip_pool_lines(
        read_file(o.root + "/perfbench/ref/paper/" + b.binary + ".txt")));
  }
  for (const auto& b : paper_benches()) {  // warm-up
    std::string out;
    double cpu_s = 0.0;
    (void)run_binary(o.bin + "/" + b.binary, w.env.envp(), out, cpu_s);
  }
  return w;
}

/// The binaries run one at a time, so a pass's wall time does not depend
/// on the seed's order and each binary's time is its own.
int run_paper_workload(const Options& o, PaperWorkload& w,
                       const std::vector<double>& setup_s) {
  const auto& benches = paper_benches();
  const std::size_t n = w.order.size();
  std::printf("paper_figures: %zu bench binaries per pass, one at a time, "
              "DH_THREADS=1 each\n",
              n);
  Failures failures;
  std::vector<std::vector<double>> bench_ms(benches.size());
  std::mutex ms_mu;
  const auto item = [&](std::size_t i) {
    const std::size_t b = w.order[i];
    std::string out;
    double cpu_s = 0.0;
    const std::string key = benches[b].binary;
    const int status = [&] {
      try {
        return run_binary(o.bin + "/" + key, w.env.envp(), out, cpu_s);
      } catch (const std::exception& e) {
        failures.add(key + ": " + e.what());
        return -1;
      }
    }();
    {
      std::lock_guard<std::mutex> lock(ms_mu);
      bench_ms[b].push_back(cpu_s * 1e3);
    }
    if (status > 0) {
      failures.add(key + ": exit status " + std::to_string(status));
    } else if (status == 0 && strip_pool_lines(out) != w.refs[b]) {
      failures.add(key + ": stdout differs from ref/paper/" + key + ".txt");
    }
    return cpu_s;
  };

  PassLog log;
  Metrics m;
  dh::ThreadPool serial(1);
  run_passes(serial, n, o.seconds, item, log);
  if (o.trace) {
    std::map<std::string, double> paper_ms;
    for (std::size_t b = 0; b < benches.size(); ++b) {
      paper_ms[benches[b].binary] = median(bench_ms[b]);
    }
    per_layer(m, {}, 1, log, true, 0.0, 0.0, paper_ms);
  } else {
    end_to_end(m, setup_s, log, n);
  }
  std::printf("per binary, median CPU ms:\n");
  for (std::size_t b = 0; b < benches.size(); ++b) {
    std::printf("  %-26s %9.3f\n", benches[b].binary, median(bench_ms[b]));
  }
  std::printf("passes %zu, items %zu, threads %zu\n", log.pass_wall_s.size(),
              log.items, std::size_t{1});
  m.print();
  report_failures(failures, log.items);
  print_result(failures.count == 0, log.items, failures.count, m);
  return 0;
}

// ---- reference writing --------------------------------------------------

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  if (!out) throw Error("cannot write " + path);
}

/// Regenerates the committed references from the current program: every
/// pool member of fig12 and fig11, and every paper binary's output.
/// ref/fig12_table.txt is not written here: it is Fig. 12's table as
/// bench/fig12_system_schedule prints it.
int write_refs(const Options& o, dh::ThreadPool& pool) {
  const std::string dir = o.root + "/perfbench/ref";
  std::filesystem::create_directories(dir + "/paper");
  {
    std::vector<Fig12Item> items;
    for (std::size_t m = 0; m < kFig12Pool; ++m) {
      for (std::size_t k = 0; k < kKindCount; ++k) {
        for (std::size_t p = 0; p < kPolicyCount; ++p) {
          items.push_back({p, k, m});
        }
      }
    }
    const auto lines = pool.parallel_map(items.size(), [&](std::size_t i) {
      return fig12_key(items[i]) + "\t" +
             fig12_line(items[i], run_fig12(items[i]));
    });
    std::string text =
        "# fig12_policy_sweep: key<TAB>result line, every pool member\n";
    for (const auto& l : lines) text += l + "\n";
    write_text(dir + "/fig12_items.tsv", text);
  }
  {
    std::vector<Fig11Item> items;
    for (std::size_t m = 0; m < kFig11Pool; ++m) {
      items.push_back({m, false});
      items.push_back({m, true});
    }
    const auto lines = pool.parallel_map(items.size(), [&](std::size_t i) {
      return fig11_key(items[i]) + "\t" +
             fig11_line(items[i], run_fig11(items[i]));
    });
    std::string text =
        "# fig11_mesh_aging: key<TAB>result line, every pool map\n";
    for (const auto& l : lines) text += l + "\n";
    write_text(dir + "/fig11_items.tsv", text);
  }
  ChildEnv env;
  for (const auto& b : paper_benches()) {
    std::string out;
    double cpu_s = 0.0;
    if (run_binary(o.bin + "/" + b.binary, env.envp(), out, cpu_s) != 0) {
      throw Error(std::string(b.binary) + " failed");
    }
    write_text(dir + "/paper/" + b.binary + ".txt", strip_pool_lines(out));
  }
  std::printf("references written under %s\n", dir.c_str());
  return 0;
}

// ---- main ---------------------------------------------------------------

/// Set-up is everything between process start-up and the first timed
/// item: reading the references, generating the seed's items, starting
/// the thread pool, and untimed warm-up work (see each setup_*), so lazy
/// initialisation and cold caches are paid here. Set-up runs this many
/// times and the median is reported; the first runs after an idle spell
/// are slow. It is timed in-process: launch times on small VMs jump
/// between ~1, 4 and 8 ms with the scheduler tick.
constexpr int kSetupRuns = 7;

template <typename Make>
auto set_up(Make make, std::vector<double>& seconds) {
  for (int k = 1;; ++k) {
    const std::int64_t t0 = now_ns();
    auto w = make();
    seconds.push_back(seconds_since(t0));
    if (k == kSetupRuns) return w;
  }
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw Error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--root") o.root = value();
    else if (a == "--bin") o.bin = value();
    else if (a == "--out") o.out = value();
    else if (a == "--write-refs") o.write_refs = true;
    else throw Error("unknown argument " + a);
  }
  if (o.bin.empty() || o.out.empty()) {
    throw Error("--bin and --out are required");
  }
  return o;
}

int run(int argc, char** argv) {
  Options o = parse(argc, argv);
  // Settings that change what the program does must come from here only.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DH_", 3) == 0) {
      throw Error(std::string(*e) + " is set; run through run.py");
    }
  }
  // A fixed thread count, capped by the machine.
  o.threads = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  if (o.write_refs) {
    dh::ThreadPool pool(o.threads);
    return write_refs(o, pool);
  }
  std::vector<double> setup_s;
  if (o.workload == "fig12_policy_sweep") {
    Fig12Workload w = set_up([&] { return setup_fig12(o); }, setup_s);
    return run_fig12_workload(o, w, setup_s);
  }
  if (o.workload == "fig11_mesh_aging") {
    Fig11Workload w = set_up([&] { return setup_fig11(o); }, setup_s);
    return run_fig11_workload(o, w, setup_s);
  }
  if (o.workload == "paper_figures") {
    PaperWorkload w = set_up([&] { return setup_paper(o); }, setup_s);
    return run_paper_workload(o, w, setup_s);
  }
  throw Error("unknown workload '" + o.workload + "'");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
