// Reproduces the quantitative content of Fig. 11: the global PDN grid
// (wide, thick top metals) is robust against EM while the local grids
// (thin lower metals, high current density) are the hazard the assist
// circuitry must protect.
//
// The local-mesh dimensions are configurable — `--rows=N` / `--cols=N`
// on the command line, or the DH_PDN_ROWS / DH_PDN_COLS environment
// variables (CLI wins) — so the same binary can age the default 8x8
// mesh or a larger one (e.g. --rows=64 --cols=64) through the sparse
// solver engine's banded Cholesky.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/table.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"
#include "pdn/aging_pdn.hpp"

namespace {

std::size_t dim_option(int argc, char** argv, const char* cli_prefix,
                       const char* env_name, std::size_t fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], cli_prefix, std::strlen(cli_prefix)) == 0) {
      const long v = std::atol(argv[i] + std::strlen(cli_prefix));
      if (v > 0) return static_cast<std::size_t>(v);
      std::fprintf(stderr, "ignoring %s (need a positive integer)\n",
                   argv[i]);
    }
  }
  if (const char* env = std::getenv(env_name)) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
    std::fprintf(stderr, "ignoring %s=%s (need a positive integer)\n",
                 env_name, env);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dh;
  using namespace dh::em;

  const std::size_t mesh_rows =
      dim_option(argc, argv, "--rows=", "DH_PDN_ROWS", 8);
  const std::size_t mesh_cols =
      dim_option(argc, argv, "--cols=", "DH_PDN_COLS", 8);

  std::printf("== Fig. 11: global vs local PDN layers as EM hazards ==\n\n");

  const EmMaterialParams mat = paper_calibrated_em_material();
  struct Layer {
    const char* name;
    WireGeometry wire;
    double current_a;  // per segment under the same delivered power
  };
  const Layer layers[] = {
      {"global grid (M9/M10-class)",
       {.length = Meters{500e-6}, .width = Meters{5e-6},
        .thickness = Meters{2e-6}, .resistivity_ref = 1.9e-8,
        .reference_temperature = Celsius{20.0}, .tcr_per_k = 3.93e-3,
        .liner_ohm_per_m = 5e7},
       0.04},
      {"intermediate (M5/M6-class)",
       {.length = Meters{300e-6}, .width = Meters{1.5e-6},
        .thickness = Meters{0.6e-6}, .resistivity_ref = 2.0e-8,
        .reference_temperature = Celsius{20.0}, .tcr_per_k = 3.93e-3,
        .liner_ohm_per_m = 1.5e8},
       0.025},
      {"local grid (M2/M3-class)",
       {.length = Meters{200e-6}, .width = Meters{0.5e-6},
        .thickness = Meters{0.2e-6}, .resistivity_ref = 2.2e-8,
        .reference_temperature = Celsius{20.0}, .tcr_per_k = 3.93e-3,
        .liner_ohm_per_m = 2.5e8},
       0.012},
  };

  const Celsius t{105.0};
  Table table({"layer", "j (MA/cm^2)", "Blech jL / crit", "EM status",
               "t_nuc estimate"});
  for (const auto& l : layers) {
    const double j = l.current_a / l.wire.cross_section_m2();
    const double blech = j * l.wire.length.value();
    const double crit =
        mat.blech_threshold(l.wire.resistivity_at(to_kelvin(t)));
    std::string status;
    std::string tnuc;
    if (blech < crit) {
      status = "immortal (Blech)";
      tnuc = "-";
    } else {
      status = "mortal";
      const Seconds tn = CompactEm::analytic_nucleation_time(
          mat, l.wire, AmpsPerM2{j}, t);
      tnuc = Table::num(in_years(tn), 1) + " years";
    }
    table.add_row({l.name, Table::num(j / 1e10, 2),
                   Table::num(blech / crit, 2), status, tnuc});
  }
  table.print(std::cout);

  std::printf(
      "\nThe local layer is the EM-sensitive one, as Fig. 11 argues —\n"
      "which is why the assist circuitry sits between the global and the\n"
      "local grids and protects the latter.\n\n");

  // Show the protection on an actual local mesh.
  pdn::PdnParams mesh_params;
  mesh_params.rows = mesh_rows;
  mesh_params.cols = mesh_cols;
  std::printf(
      "local %zux%zu mesh (engine: banded_cholesky), hot accelerated corner "
      "(compressed test):\n",
      mesh_rows, mesh_cols);
  const auto run = [&](bool protect) {
    pdn::AgingPdn pdn{mesh_params, mat};
    const std::vector<double> loads(pdn.grid().node_count(), 0.003);
    for (int h = 0; h < 48; ++h) {
      // 40% duty EM recovery when protected (the planner's prescription
      // for this current density and horizon).
      pdn.step(loads, Celsius{230.0}, minutes(36.0), false);
      pdn.step(loads, Celsius{230.0}, minutes(24.0), protect);
    }
    return pdn.stats();
  };
  const auto raw = run(false);
  const auto prot = run(true);
  std::printf("  unprotected: %zu broken, max void %.1f nm\n",
              raw.broken_segments, raw.max_void_len_m * 1e9);
  std::printf("  protected:   %zu broken, max void %.1f nm\n",
              prot.broken_segments, prot.max_void_len_m * 1e9);
  return 0;
}
