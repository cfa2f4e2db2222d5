// The traced run's step loops. They make the same public calls, in the
// same order, as SystemSimulator::step and AgingPdn::step, with a span
// around the calls into each layer, so the per-layer self times come from
// the benchmark's own files and the program stays untouched. The results
// are compared bit for bit with the untraced program (trace.identical).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "items.hpp"

namespace perfbench {

enum Layer : std::uint8_t {
  kItem,       // one whole item (construction, steps, summary)
  kStep,       // one quantum / mesh step; its self time is the glue
  kWorkload,   // Workload::sample
  kPolicy,     // sensor read + RecoveryPolicy::decide
  kCorePower,  // Core::power + Core::supply_current
  kThermal,    // ThermalGrid::set_power_map + solve_steady
  kBti,        // Core::step (compact BTI)
  kEm,         // CompactEm::resistance + Blech filter + CompactEm::step
  kPdnSolve,   // PdnGrid::solve
  kLayerCount
};

struct Span {
  std::uint32_t id;
  std::uint32_t parent;  // 0: none
  std::uint32_t item;
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Per-thread span recorder. Self time (duration minus the part covered
/// by child spans) accumulates for every span. The spans themselves are
/// kept in memory, in start order up to a cap (so a kept span's parent is
/// kept too), and written out when the run ends.
class Tracer {
 public:
  explicit Tracer(std::size_t span_cap) : cap_(span_cap) {}

  void begin(Layer layer, std::uint32_t item = 0);
  void end();

  struct Scope {
    Scope(Tracer& t, Layer layer, std::uint32_t item = 0) : tracer(t) {
      tracer.begin(layer, item);
    }
    ~Scope() { tracer.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Tracer& tracer;
  };

  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::int64_t, kLayerCount> total_ns{};
  std::vector<Span> spans;
  std::size_t dropped = 0;

 private:
  struct Open {
    Layer layer;
    std::size_t slot;  // index in `spans`, or SIZE_MAX when not kept
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::size_t cap_;
  std::uint32_t next_id_ = 1;
  std::uint32_t open_item_ = 0;
  std::vector<std::uint32_t> open_ids_;  // ids of the open spans
  std::vector<Open> stack_;
};

std::int64_t now_ns();

/// Work counted at the layer boundaries; exact and repeatable.
struct LayerCounts {
  std::uint64_t bti_calls = 0;         // Core::step
  std::uint64_t thermal_solves = 0;    // ThermalGrid::solve_steady
  std::uint64_t pdn_solves = 0;        // PdnGrid::solve
  std::uint64_t pdn_factorizations = 0;
  std::uint64_t pdn_cg_iterations = 0;
  std::uint64_t em_segment_visits = 0;  // segments offered to the EM step
  std::uint64_t em_segment_steps = 0;   // CompactEm::step (not Blech-skipped)
  std::uint64_t quanta = 0;
  std::uint64_t recovery_quanta = 0;
  LayerCounts& operator+=(const LayerCounts& o);
  bool operator==(const LayerCounts&) const = default;
};

/// The fig12 item through the traced loop; returns what
/// SystemSimulator::summary() would.
dh::sched::SystemSummary traced_fig12(const Fig12Item& item, Tracer& tracer,
                                      LayerCounts& counts);
/// The fig11 item through the traced loop; returns what run_fig11 does.
MeshResult traced_fig11(const Fig11Item& item, Tracer& tracer,
                        LayerCounts& counts);

/// Bitwise equality of every field the summaries report.
bool identical(const dh::sched::SystemSummary& a,
               const dh::sched::SystemSummary& b);
bool identical(const MeshResult& a, const MeshResult& b);

/// Writes spans as JSON lines: one object per span.
void write_spans(std::ostream& out, const std::vector<Span>& spans,
                 std::size_t thread);

}  // namespace perfbench
