// Work items of the benchmark workloads: how each item's inputs are
// generated from the benchmark seed, how it runs through the program's
// public API, and the one-line result every item is checked by.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pdn/aging_pdn.hpp"
#include "sched/system_sim.hpp"

namespace perfbench {

// ---- fig12_policy_sweep -------------------------------------------------

/// Fig. 12's five policies, in the order of its table.
inline constexpr std::size_t kPolicyCount = 5;
/// Workload kinds: Fig. 12's diurnal load, bursty load, periodic IoT duty.
inline constexpr std::size_t kKindCount = 3;
/// Members with committed reference results. Member 0 runs Fig. 12's own
/// simulator seed (42); member j > 0 runs Rng::stream_seed(42, j).
inline constexpr std::size_t kFig12Pool = 32;
/// Members per pass: member 0 plus this many minus one drawn from the pool
/// by the benchmark seed.
inline constexpr std::size_t kFig12Members = 8;
/// Two years of 6 h quanta.
inline constexpr std::size_t kFig12Quanta = 2922;

const char* policy_name(std::size_t policy);
const char* kind_name(std::size_t kind);

struct Fig12Item {
  std::size_t policy = 0;
  std::size_t kind = 0;
  std::size_t member = 0;
};

dh::sched::SystemParams fig12_params(std::size_t kind, std::size_t member);
std::unique_ptr<dh::sched::RecoveryPolicy> fig12_policy(std::size_t policy);
/// Runs the item through SystemSimulator::run.
dh::sched::SystemSummary run_fig12(const Fig12Item& item);
std::string fig12_key(const Fig12Item& item);
/// Result line at fixed printed precision (the reference format).
std::string fig12_line(const Fig12Item& item,
                       const dh::sched::SystemSummary& s);

// ---- fig11_mesh_aging ---------------------------------------------------

/// Load maps with committed reference results. Map 0 is Fig. 11's uniform
/// 3 mA map; map j > 0 draws every node load uniformly in [1.5, 4.5] mA
/// from Rng::stream(kFig11Root, j).
inline constexpr std::size_t kFig11Pool = 64;
inline constexpr std::size_t kFig11Members = 16;
/// Fig. 11's compressed protocol is 48 one-hour cycles; the benchmark runs
/// four times as long, well past the unprotected mesh's breakage, and
/// records the state at hour 48 (Fig. 11's figures) and at the end.
inline constexpr std::size_t kFig11FigureHours = 48;
inline constexpr std::size_t kFig11Hours = 192;
/// Two mesh steps per hour: 36 min forward, 24 min reverse-when-protected.
inline constexpr std::size_t kFig11Steps = 2 * kFig11Hours;

struct Fig11Item {
  std::size_t member = 0;
  bool protect = false;
};

struct MeshResult {
  dh::pdn::AgingPdnStats at_figure;  // after kFig11FigureHours
  dh::pdn::AgingPdnStats at_end;     // after kFig11Hours
};

dh::pdn::PdnParams fig11_mesh();
std::vector<double> fig11_loads(std::size_t member);
/// Runs the item through AgingPdn::step.
MeshResult run_fig11(const Fig11Item& item);
std::string fig11_key(const Fig11Item& item);
std::string fig11_line(const Fig11Item& item, const MeshResult& r);
/// Fig. 11's printed mesh line ("  unprotected: N broken, max void X nm").
std::string fig11_figure_line(bool protect,
                              const dh::pdn::AgingPdnStats& at_figure);

// ---- paper_figures ------------------------------------------------------

struct PaperBench {
  const char* binary;
  const char* metric;  // per-layer metric of its wall time
};
const std::vector<PaperBench>& paper_benches();
/// Drops the thread pool's wall-time line, the one line that varies.
std::string strip_pool_lines(const std::string& out);

// ---- seed-driven selection ----------------------------------------------

/// Member 0 followed by `count - 1` distinct members of [1, pool) drawn
/// from the benchmark seed (`stream` keeps the workloads independent).
std::vector<std::size_t> pick_members(std::uint64_t seed, std::uint64_t stream,
                                      std::size_t pool, std::size_t count);
/// A seed-driven permutation of [0, n).
std::vector<std::size_t> shuffled(std::uint64_t seed, std::uint64_t stream,
                                  std::size_t n);

/// key -> result line, from a reference file of "key<TAB>line" rows.
std::map<std::string, std::string> read_line_refs(const std::string& path);
std::string read_file(const std::string& path);

}  // namespace perfbench
