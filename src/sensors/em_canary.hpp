// EM canary sensors: sacrificial wires drawn narrower than the mission
// rails so they see a proportionally higher current density and nucleate
// first — a standard early-warning structure. A bank of canaries at
// graded widths gives a coarse "remaining life" gauge that the recovery
// scheduler can act on *before* the real grid is in danger (schedule EM
// recovery "even earlier" than nucleation, as the paper recommends).
#pragma once

#include <vector>

#include "em/compact_em.hpp"

namespace dh::sensors {

/// The bank holds three canaries at 0.5, 0.65 and 0.8 of the mission
/// wire's width (em_canary.cpp).
struct EmCanaryParams {
  em::WireGeometry mission_wire{};          // the rail being protected
  em::EmMaterialParams material{};
};

class EmCanaryBank {
 public:
  explicit EmCanaryBank(EmCanaryParams params);

  /// Age the bank: the canaries share the rail's current (same absolute
  /// current, narrower cross-section -> scaled density).
  void step(AmpsPerM2 mission_density, Celsius temperature, Seconds dt);

  /// How many canaries have nucleated (0 = healthy ... all = act now).
  [[nodiscard]] std::size_t tripped() const;
  [[nodiscard]] std::size_t size() const { return canaries_.size(); }

  /// Estimated fraction of the mission wire's nucleation life consumed,
  /// inferred from which canaries have tripped: the k-th canary trips at
  /// roughly (w_k)^2 of the mission life (density scales 1/w, nucleation
  /// time scales 1/j^2).
  [[nodiscard]] double estimated_life_consumed() const;

  [[nodiscard]] const em::CompactEm& canary(std::size_t i) const;

 private:
  std::vector<em::CompactEm> canaries_;
};

}  // namespace dh::sensors
