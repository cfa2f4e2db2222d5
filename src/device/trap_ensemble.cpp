#include "device/trap_ensemble.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/arrhenius.hpp"
#include "common/error.hpp"

namespace dh::device {

namespace {

// The calibration (DESIGN.md §5). Segment edges of the trap density
// (emission energy, eV). The edges at 0.8337, 0.9347 and 1.0896 eV are
// the 6 h emission cutoffs of Table I recovery conditions No. 1-3
// (calibration.cpp). The top segment ends *below* the 1 h No. 4 cutoff
// (1.163 eV), so a 1 h active accelerated recovery empties every
// recoverable trap a 1 h stress fills — the Fig. 4 balanced-schedule
// behaviour. Segments 1, 3 and 5 are gaps (the fit gives them zero
// weight) that keep the dense segments clear of the neighbouring cutoff
// smear.
constexpr std::array<double, 8> kBreakpointsEv = {
    0.40, 0.8337, 0.885, 0.9347, 1.000, 1.0896, 1.124, 1.144};
static_assert(kBreakpointsEv.size() == TrapSegmentWeights{}.size() + 1,
              "one more segment edge than segment weights");
static_assert(std::adjacent_find(kBreakpointsEv.begin(), kBreakpointsEv.end(),
                                 std::greater_equal<>{}) ==
                  kBreakpointsEv.end(),
              "segment edges must be strictly increasing");
// Bins of the discretized energy axis.
constexpr std::size_t kBins = 360;
static_assert(kBins >= TrapSegmentWeights{}.size(),
              "need at least one bin per segment");
// Capture and emission attempt times.
constexpr double kTau0CaptureS = 1e-10;
constexpr double kTau0EmissionS = 1e-10;
// V per e-fold of capture acceleration, of emission acceleration under
// negative bias and of emission suppression under stress.
constexpr double kV0Capture = 0.075;
constexpr double kV0Emission = 0.075;
constexpr double kV0Suppress = 0.075;
// Capture barrier excess over the emission barrier.
constexpr double kDeltaCeEv = 0.4700;
// Vth shift with every trap occupied.
constexpr Volts kDvthMax{0.052};

}  // namespace

TrapEnsemble::TrapEnsemble(const TrapSegmentWeights& segment_weights) {
  const auto& bp = kBreakpointsEv;
  const auto& sw = segment_weights;
  for (const double w : sw) {
    DH_REQUIRE(std::isfinite(w) && w >= 0.0,
               "trap segment weights must be finite and non-negative");
  }
  const double total =
      std::accumulate(sw.begin(), sw.end(), 0.0);
  DH_REQUIRE(total > 0.0 && std::isfinite(total),
             "trap density must have a positive, finite total weight");

  const double lo = bp.front();
  const double hi = bp.back();
  const double dE = (hi - lo) / static_cast<double>(kBins);
  centers_.resize(kBins);
  weights_.resize(kBins);
  for (std::size_t i = 0; i < kBins; ++i) {
    const double e0 = lo + dE * static_cast<double>(i);
    const double e1 = e0 + dE;
    centers_[i] = 0.5 * (e0 + e1);
    // Integrate the piecewise-constant density over [e0, e1].
    double w = 0.0;
    for (std::size_t s = 0; s < sw.size(); ++s) {
      const double seg_lo = bp[s];
      const double seg_hi = bp[s + 1];
      const double overlap =
          std::max(0.0, std::min(e1, seg_hi) - std::max(e0, seg_lo));
      if (overlap > 0.0) {
        w += sw[s] / total * overlap / (seg_hi - seg_lo);
      }
    }
    weights_[i] = w;
  }
  occupancy_.assign(kBins, 0.0);
}

void TrapEnsemble::apply(const BtiCondition& condition, Seconds dt) {
  DH_REQUIRE(dt.value() >= 0.0, "time step must be non-negative");
  if (dt.value() == 0.0) return;
  const Kelvin t = to_kelvin(condition.temperature);
  const double kT = thermal_energy_ev(t);
  const double v = condition.gate_bias.value();
  const double v_stress = std::max(v, 0.0);
  const double v_recover = std::max(-v, 0.0);

  const double capture_gain =
      v_stress > 0.0 ? std::exp(v_stress / kV0Capture) : 0.0;
  const double emission_gain =
      std::exp(v_recover / kV0Emission - v_stress / kV0Suppress);

  for (std::size_t i = 0; i < centers_.size(); ++i) {
    const double ea_e = centers_[i];
    const double ea_c = ea_e + kDeltaCeEv;
    const double rc = capture_gain > 0.0 ? capture_gain / kTau0CaptureS *
                                               std::exp(-ea_c / kT)
                                         : 0.0;
    const double re = emission_gain / kTau0EmissionS * std::exp(-ea_e / kT);
    const double rate = rc + re;
    if (rate <= 0.0) continue;
    const double n_eq = rc / rate;
    const double decay = std::exp(-dt.value() * rate);
    occupancy_[i] = n_eq + (occupancy_[i] - n_eq) * decay;
  }
}

void TrapEnsemble::reset() {
  std::fill(occupancy_.begin(), occupancy_.end(), 0.0);
}

Volts TrapEnsemble::delta_vth() const {
  return kDvthMax * occupied_fraction();
}

double TrapEnsemble::occupied_fraction() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    acc += weights_[i] * occupancy_[i];
  }
  return acc;
}

double TrapEnsemble::occupancy(std::size_t i) const {
  DH_REQUIRE(i < occupancy_.size(), "trap bin index out of range");
  return occupancy_[i];
}

}  // namespace dh::device
