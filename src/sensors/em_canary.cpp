#include "sensors/em_canary.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "common/obs/trace.hpp"

namespace dh::sensors {

namespace {

/// Width scale factors of the canary set, narrowest first (< 1 means the
/// canary carries a higher current density than the rail).
constexpr std::array<double, 3> kWidthScales{0.5, 0.65, 0.8};
static_assert(std::is_sorted(kWidthScales.begin(), kWidthScales.end()),
              "width scales must be ascending (narrowest canary first)");
static_assert(kWidthScales.front() > 0.0 && kWidthScales.back() <= 1.0,
              "canary width scale must be in (0, 1]");

}  // namespace

EmCanaryBank::EmCanaryBank(EmCanaryParams params) {
  for (const double w : kWidthScales) {
    em::CompactEmParams p;
    p.wire = params.mission_wire;
    p.wire.width = Meters{params.mission_wire.width.value() * w};
    p.material = params.material;
    canaries_.emplace_back(p);
  }
}

void EmCanaryBank::step(AmpsPerM2 mission_density, Celsius temperature,
                        Seconds dt) {
  const std::size_t tripped_before = tripped();
  for (std::size_t i = 0; i < canaries_.size(); ++i) {
    // Same current forced through the narrower cross-section.
    const double scale = 1.0 / kWidthScales[i];
    canaries_[i].step(AmpsPerM2{mission_density.value() * scale},
                      temperature, dt);
  }
  const std::size_t tripped_now = tripped();
  if (tripped_now > tripped_before && obs::trace_enabled()) {
    obs::trace_event(
        "sensors", "canary_trip",
        {{"tripped", static_cast<double>(tripped_now)},
         {"bank_size", static_cast<double>(canaries_.size())},
         {"life_consumed", estimated_life_consumed()}});
  }
}

std::size_t EmCanaryBank::tripped() const {
  std::size_t n = 0;
  for (const auto& c : canaries_) {
    if (c.void_open() || c.broken() || c.void_length().value() > 0.0) ++n;
  }
  return n;
}

double EmCanaryBank::estimated_life_consumed() const {
  // The widest *tripped* canary bounds life-consumed from below; the
  // narrowest *untripped* canary bounds it from above. Report the
  // midpoint of the bracket.
  double lower = 0.0;
  double upper = 1.0;
  for (std::size_t i = 0; i < canaries_.size(); ++i) {
    const double frac = kWidthScales[i] * kWidthScales[i];
    const bool hit = canaries_[i].void_open() || canaries_[i].broken() ||
                     canaries_[i].void_length().value() > 0.0;
    if (hit) {
      lower = std::max(lower, frac);
    } else {
      upper = std::min(upper, frac);
    }
  }
  if (upper < lower) upper = lower;
  return 0.5 * (lower + upper);
}

const em::CompactEm& EmCanaryBank::canary(std::size_t i) const {
  DH_REQUIRE(i < canaries_.size(), "canary index out of range");
  return canaries_[i];
}

}  // namespace dh::sensors
