#include "em/korhonen.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/math/interp.hpp"
#include "common/math/linalg.hpp"

namespace dh::em {

namespace {

// The grid: the first cell at each end and the growth ratio between
// neighbouring cells toward the middle.
constexpr double kFirstCellM = 0.2e-6;
constexpr double kStretchRatio = 1.3;
/// Longest backward-Euler substep.
constexpr double kMaxSubstepS = 30.0;
/// Current-crowding thermal resistance at the void constriction (K/W):
/// the liner shunt dissipates I^2*dR locally and raises the local
/// diffusivity — the second reason recovery under reverse current is
/// fast (and a real effect in Cu interconnect healing experiments).
constexpr double kVoidCrowdingThetaKPerW = 1550.0;

/// True when `a` and `b` have the same bits.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

KorhonenSolver::KorhonenSolver(WireGeometry wire, EmMaterialParams material)
    : wire_(wire), material_(material) {
  DH_REQUIRE(kFirstCellM < wire.length.value() / 4.0,
             "first grid cell must be much shorter than the wire");
  const double half = wire_.length.value() / 2.0;
  const auto left =
      math::stretched_grid(0.0, half, kFirstCellM, kStretchRatio);
  // Mirror onto the right half so both ends are finely resolved.
  x_ = left;
  for (std::size_t i = left.size() - 1; i-- > 0;) {
    x_.push_back(wire_.length.value() - left[i]);
  }
  const std::size_t n = x_.size();
  DH_REQUIRE(n >= 8, "grid unexpectedly coarse");
  cell_w_.resize(n);
  cell_w_[0] = 0.5 * (x_[1] - x_[0]);
  cell_w_[n - 1] = 0.5 * (x_[n - 1] - x_[n - 2]);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    cell_w_[i] = 0.5 * (x_[i + 1] - x_[i - 1]);
  }
  sigma_.assign(n, 0.0);
  tri_lower_.assign(n - 1, 0.0);
  tri_diag_.assign(n, 0.0);
  tri_upper_.assign(n - 1, 0.0);
  factor_.lower.resize(n - 1);
  factor_.c_prime.resize(n - 1);
  factor_.pivot.resize(n);
  wind_.assign(n, 0.0);
}

void KorhonenSolver::step(AmpsPerM2 j, Celsius temperature, Seconds dt) {
  // An infinite step would substep until the wire breaks, or forever.
  DH_REQUIRE(std::isfinite(dt.value()) && dt.value() >= 0.0,
             "time step must be finite and non-negative");
  // A non-finite current would turn the stress field to NaN, after which
  // the wire could never nucleate or break.
  DH_REQUIRE(std::isfinite(j.value()), "current density must be finite");
  if (broken_) {
    elapsed_s_ += dt.value();
    return;
  }
  const Kelvin t = to_kelvin(temperature);
  const EmKinetics k = material_.kinetics(t, wire_.resistivity_at(t));
  const StepTerms terms{.t = t,
                        .kappa = k.kappa,
                        .g = k.driving_force(j),
                        .fix_rate = material_.fix_rate(t),
                        .current_a = wire_.current_for_density(j).value(),
                        .diffusivity = k.diffusivity};
  double remaining = dt.value();
  while (remaining > 0.0 && !broken_) {
    const double h = std::min(remaining, kMaxSubstepS);
    substep(terms, h);
    remaining -= h;
  }
}

void KorhonenSolver::refactor(double kappa, double dt, bool dirichlet0,
                              bool dirichletN) {
  // Assemble and factor the backward-Euler matrix (I/dt - A), where A
  // couples neighbours through kappa/h; a free-surface (Dirichlet) end is
  // the identity row sigma = 0.
  const std::size_t n = x_.size();
  std::vector<double>& lower = tri_lower_;
  std::vector<double>& diag = tri_diag_;
  std::vector<double>& upper = tri_upper_;
  for (std::size_t i = 0; i < n; ++i) {
    if ((i == 0 && dirichlet0) || (i == n - 1 && dirichletN)) {
      diag[i] = 1.0;
      if (i == 0) upper[0] = 0.0;
      if (i == n - 1) lower[n - 2] = 0.0;
      continue;
    }
    diag[i] = 1.0 / dt;
    // Right face.
    if (i + 1 < n) {
      const double c = kappa / (x_[i + 1] - x_[i]) / cell_w_[i];
      diag[i] += c;
      upper[i] = -c;
    }
    // Left face.
    if (i > 0) {
      const double c = kappa / (x_[i] - x_[i - 1]) / cell_w_[i];
      diag[i] += c;
      lower[i - 1] = -c;
    }
  }
  // A factorization that throws leaves no usable factor behind.
  factored_ = false;
  math::factor_tridiagonal(lower, diag, upper, factor_);
  factored_ = true;
  factor_kappa_ = kappa;
  factor_dt_ = dt;
  factor_dirichlet0_ = dirichlet0;
  factor_dirichletN_ = dirichletN;
}

void KorhonenSolver::refresh_wind(double kappa, double g) {
  for (std::size_t i = 0; i < wind_.size(); ++i) {
    wind_[i] = kappa * g / cell_w_[i];
  }
  wind_set_ = true;
  wind_kappa_ = kappa;
  wind_g_ = g;
}

void KorhonenSolver::substep(const StepTerms& s, double dt) {
  const std::size_t n = x_.size();
  const double kappa = s.kappa;
  const double g = s.g;

  // Backward Euler: (I/dt - A) sigma^{n+1} = sigma^n/dt + b, where b
  // carries the wind flux through each face of a non-Dirichlet cell.
  const bool dirichlet0 = void_start_.open;
  const bool dirichletN = void_end_.open;
  if (!factored_ || !same_bits(kappa, factor_kappa_) ||
      !same_bits(dt, factor_dt_) || dirichlet0 != factor_dirichlet0_ ||
      dirichletN != factor_dirichletN_) {
    refactor(kappa, dt, dirichlet0, dirichletN);
  }
  if (!wind_set_ || !same_bits(kappa, wind_kappa_) ||
      !same_bits(g, wind_g_)) {
    refresh_wind(kappa, g);
  }
  // The right-hand side, formed in place: the wind enters through a
  // cell's right face and leaves through its left. An interior cell's
  // (sigma/dt + wind) - wind is left unsimplified, since folding it would
  // change the bits of every result.
  sigma_[0] = dirichlet0 ? 0.0 : sigma_[0] / dt + wind_[0];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    sigma_[i] = sigma_[i] / dt + wind_[i] - wind_[i];
  }
  sigma_[n - 1] = dirichletN ? 0.0 : sigma_[n - 1] / dt - wind_[n - 1];
  math::solve_tridiagonal(factor_, sigma_, sigma_);

  // Void growth/healing from the boundary fluxes.
  auto flux_at_face = [&](std::size_t left_node) {
    const double h = x_[left_node + 1] - x_[left_node];
    return kappa *
           ((sigma_[left_node + 1] - sigma_[left_node]) / h + g);  // Pa*m/s
  };
  auto evolve_void = [&](VoidState& v, double signed_flux) {
    if (!v.open) return;
    // Current crowding: the liner shunt around the void dissipates
    // I^2*dR locally and raises the local diffusivity.
    const double dr_void = wire_.liner_ohm_per_m * v.total_m();
    const double p_local = s.current_a * s.current_a * dr_void;
    const Kelvin t_local{s.t.value() + kVoidCrowdingThetaKPerW * p_local};
    const double heat_boost =
        material_.diffusivity(t_local) / s.diffusivity;
    const double rate = signed_flux * heat_boost / kBulkModulusPa;
    // Growth feeds the slit with partial efficiency; healing refills the
    // slit at full efficiency.
    v.mobile_len_m += rate * (rate > 0.0 ? kSlitEfficiency : 1.0) * dt;
    // First-order immobilization of the healable length.
    const double converted =
        v.mobile_len_m * (1.0 - std::exp(-s.fix_rate * dt));
    if (converted > 0.0) {
      v.mobile_len_m -= converted;
      v.fixed_len_m += converted;
    }
    if (v.mobile_len_m <= 0.0) {
      v.mobile_len_m = 0.0;
      v.open = false;  // healed (any fixed residue stays in the resistance)
    }
  };
  // Atoms leaving the x=0 void travel in +x: growth for positive flux.
  evolve_void(void_start_, flux_at_face(0));
  // Atoms leaving the x=L void travel in -x: growth for negative flux.
  evolve_void(void_end_, -flux_at_face(n - 2));

  maybe_nucleate(WireEnd::kStart);
  maybe_nucleate(WireEnd::kEnd);

  if (total_void_length().value() >= kBreakVoidLengthM) {
    broken_ = true;
  }
  elapsed_s_ += dt;
}

void KorhonenSolver::maybe_nucleate(WireEnd end) {
  VoidState& v = end == WireEnd::kStart ? void_start_ : void_end_;
  if (v.open) return;
  const std::size_t node = end == WireEnd::kStart ? 0 : x_.size() - 1;
  if (sigma_[node] >= material_.critical_stress.value()) {
    v.open = true;
    ever_nucleated_ = true;
    if (v.mobile_len_m <= 0.0) {
      v.mobile_len_m = 0.5e-9;  // seed void
    }
    sigma_[node] = 0.0;
  }
}

Ohms KorhonenSolver::resistance(Celsius t) const {
  if (broken_) {
    // The liner has cracked: the line is effectively open.
    return Ohms{1e9};
  }
  return wire_.resistance_with_void(to_kelvin(t), total_void_length());
}

Pascals KorhonenSolver::stress_at(WireEnd end) const {
  return Pascals{end == WireEnd::kStart ? sigma_.front() : sigma_.back()};
}

const VoidState& KorhonenSolver::void_at(WireEnd end) const {
  return end == WireEnd::kStart ? void_start_ : void_end_;
}

Meters KorhonenSolver::total_void_length() const {
  return Meters{void_start_.total_m() + void_end_.total_m()};
}

bool KorhonenSolver::nucleated(WireEnd end) const {
  const VoidState& v = end == WireEnd::kStart ? void_start_ : void_end_;
  return v.open || v.total_m() > 0.0;
}

double KorhonenSolver::stress_integral() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < sigma_.size(); ++i) {
    acc += sigma_[i] * cell_w_[i];
  }
  return acc;
}

}  // namespace dh::em
