#include "sram/sram_array.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace dh::sram {

namespace {

constexpr double kPOne = 0.5;  // probability a cell stores 1

}  // namespace

SramArray::SramArray(SramArrayParams params)
    : params_(params), rng_(params.seed) {
  DH_REQUIRE(params_.cells >= 1, "array needs at least one cell");
  cells_.reserve(params_.cells);
  bits_.reserve(params_.cells);
  jobs_.reserve(2 * params_.cells);  // one job per PMOS
  for (std::size_t i = 0; i < params_.cells; ++i) {
    cells_.emplace_back();
    bits_.push_back(rng_.bernoulli(kPOne));
  }
}

void SramArray::step(Celsius temperature, Seconds dt,
                     double boost_fraction) {
  DH_REQUIRE(boost_fraction >= 0.0 && boost_fraction <= 1.0,
             "boost fraction must be in [0,1]");
  // Checked before any bit is drawn: a negative or NaN dt would
  // otherwise fail only in the batch, after a flipping array had drawn
  // new bits. Both intervals are at most dt, so the batch cannot throw.
  device::CompactBti::require_valid_dt(dt);
  device::CompactBti::require_valid_temperature(temperature);
  const Seconds hold{dt.value() * (1.0 - boost_fraction)};
  const Seconds boost{dt.value() * boost_fraction};
  // One shared stream; the draw order is part of the array's
  // deterministic behaviour.
  if (params_.pattern == DataPattern::kFlipping) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      bits_[i] = rng_.bernoulli(kPOne);
    }
  }
  jobs_.clear();
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    for (const device::BtiJob& job :
         cells_[i].jobs(bits_[i], temperature, hold, boost)) {
      jobs_.push_back(job);
    }
  }
  device::CompactBti::apply_batch(jobs_);
}

SramArrayHealth SramArray::scan_health() const {
  // The per-cell SNM is a butterfly-curve circuit solve — the expensive
  // part — so it fans out over the pool; the reduction runs serially in
  // index order so the mean is bit-identical at any thread count.
  const std::vector<double> snm =
      parallel_map(cells_.size(), [&](std::size_t i) {
        return cells_[i].hold_snm().value();
      });
  SramArrayHealth h;
  h.worst_snm = Volts{1e9};
  double acc = 0.0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    h.worst_snm = std::min(h.worst_snm, Volts{snm[i]});
    acc += snm[i];
    h.worst_pmos_dvth =
        std::max({h.worst_pmos_dvth, cells_[i].left_pmos_dvth(),
                  cells_[i].right_pmos_dvth()});
  }
  h.mean_snm = Volts{acc / static_cast<double>(cells_.size())};
  return h;
}

SramArrayHealth SramArray::worst_cell_health() const {
  // The hold SNM is governed by the *asymmetry* between the two pull-ups;
  // find the most asymmetric cell and compute only its SNM.
  const SramCell* worst = &cells_.front();
  double worst_asym = -1.0;
  SramArrayHealth h;
  for (const auto& c : cells_) {
    const double asym = std::abs(c.left_pmos_dvth().value() -
                                 c.right_pmos_dvth().value());
    if (asym > worst_asym) {
      worst_asym = asym;
      worst = &c;
    }
    h.worst_pmos_dvth = std::max(
        {h.worst_pmos_dvth, c.left_pmos_dvth(), c.right_pmos_dvth()});
  }
  h.worst_snm = worst->hold_snm();
  h.mean_snm = h.worst_snm;  // proxy scan does not average
  return h;
}

const SramCell& SramArray::cell(std::size_t i) const {
  DH_REQUIRE(i < cells_.size(), "cell index out of range");
  return cells_[i];
}

}  // namespace dh::sram
