// Korhonen-type 1-D electromigration stress-evolution solver.
//
// Physics (Korhonen 1993; Huang [5] and Sukharev [12] in the paper's
// reference list):
//
//   d(sigma)/dt = d/dx [ kappa * ( d(sigma)/dx + G ) ]
//
// where sigma is the hydrostatic stress in the line (positive = tensile),
// kappa = Da*B*Omega/kT, and G = e*Z*rho*j/Omega is the electron-wind
// driving force. Both line ends are flux-blocked (dual-damascene vias act
// as diffusion barriers). For forward current (j > 0) tensile stress
// builds at the cathode (x = 0); when it exceeds the critical stress a
// void nucleates there (the paper's *void nucleation phase*, during which
// the resistance is flat). The void end then becomes a free surface
// (sigma = 0) and the void grows at the drift velocity (the *void growth
// phase*, resistance rising as current shunts through the liner).
// Reversing the current reverses the atom flux and heals the void — the
// paper's *EM active recovery* — and, if held after full healing, builds
// tensile stress at the opposite end and nucleates a reverse void
// (the "reverse current-induced EM" of Fig. 6).
//
// The permanent component of Fig. 5 is modeled as first-order
// *immobilization* of void length (interface passivation): mobile void
// converts to unhealable void with an Arrhenius rate, so recovery applied
// early in the growth phase is complete (Fig. 6) while late recovery
// leaves a residue (Fig. 5).
//
// Numerics: finite volume on a two-sided geometrically stretched grid
// (all the action lives within a few diffusion lengths of the ends of the
// 2.673 mm line), backward-Euler time stepping with a tridiagonal solve.
#pragma once

#include <vector>

#include "common/math/linalg.hpp"
#include "common/units.hpp"
#include "em/material.hpp"
#include "em/wire.hpp"

namespace dh::em {

enum class WireEnd { kStart, kEnd };  // x = 0 and x = L

struct VoidState {
  bool open = false;
  double mobile_len_m = 0.0;  // healable void length
  double fixed_len_m = 0.0;   // immobilized (permanent) void length
  [[nodiscard]] double total_m() const { return mobile_len_m + fixed_len_m; }
};

class KorhonenSolver {
 public:
  /// The wire must be longer than four of the grid's first cells
  /// (0.2 um, korhonen.cpp).
  KorhonenSolver(WireGeometry wire, EmMaterialParams material);

  /// Advance by `dt` (finite, non-negative) under current density `j`
  /// (finite; sign = direction) at the given chamber/line temperature.
  /// Internally substeps.
  void step(AmpsPerM2 j, Celsius temperature, Seconds dt);

  /// Wire resistance at measurement temperature `t`, including liner
  /// shunting through both voids. Returns a large value once broken.
  [[nodiscard]] Ohms resistance(Celsius t) const;

  [[nodiscard]] Pascals stress_at(WireEnd end) const;
  [[nodiscard]] const VoidState& void_at(WireEnd end) const;
  [[nodiscard]] Meters total_void_length() const;
  [[nodiscard]] bool nucleated(WireEnd end) const;
  /// True once either void has ever opened.
  [[nodiscard]] bool ever_nucleated() const { return ever_nucleated_; }
  [[nodiscard]] bool broken() const { return broken_; }
  [[nodiscard]] Seconds elapsed() const { return Seconds{elapsed_s_}; }

  /// Total stress integral over the line (Pa*m) — conserved while both
  /// ends are blocked (used by the property tests).
  [[nodiscard]] double stress_integral() const;


  [[nodiscard]] const WireGeometry& wire() const { return wire_; }
  [[nodiscard]] const EmMaterialParams& material() const { return material_; }

 private:
  // What a step holds fixed across its substeps, evaluated once per step.
  struct StepTerms {
    Kelvin t;
    double kappa;        // Korhonen kappa(T) (m^2/s)
    double g;            // wind driving force G(j) at T (Pa/m)
    double fix_rate;     // void immobilization rate at T (1/s)
    double current_a;    // wire current (A)
    double diffusivity;  // D(T) (m^2/s)
  };
  void substep(const StepTerms& s, double dt);
  void refactor(double kappa, double dt, bool dirichlet0, bool dirichletN);
  void refresh_wind(double kappa, double g);
  void maybe_nucleate(WireEnd end);

  WireGeometry wire_;
  EmMaterialParams material_;
  std::vector<double> x_;       // node coordinates
  std::vector<double> cell_w_;  // finite-volume cell widths
  std::vector<double> sigma_;   // stress at nodes (Pa)
  // The backward-Euler matrix depends only on kappa, the substep and
  // which ends are free surfaces; its factor is rebuilt when one of them
  // changes (compared bit for bit). The wind term kappa*g/cell_w is kept
  // the same way, keyed on kappa and g. Every buffer is sized in the
  // constructor, so a step allocates nothing.
  std::vector<double> tri_lower_;
  std::vector<double> tri_diag_;
  std::vector<double> tri_upper_;
  math::TridiagonalFactor factor_;
  bool factored_ = false;
  double factor_kappa_ = 0.0;
  double factor_dt_ = 0.0;
  bool factor_dirichlet0_ = false;
  bool factor_dirichletN_ = false;
  std::vector<double> wind_;  // kappa*g/cell_w per node
  bool wind_set_ = false;
  double wind_kappa_ = 0.0;
  double wind_g_ = 0.0;
  VoidState void_start_;
  VoidState void_end_;
  bool broken_ = false;
  bool ever_nucleated_ = false;
  double elapsed_s_ = 0.0;
};

}  // namespace dh::em
