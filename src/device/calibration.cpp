// Calibration of the BTI model to the paper's Table I.
//
// Derivation sketch (full math in DESIGN.md §5): with attempt time
// tau0 = 1e-10 s, a 6 h recovery empties every trap whose emission time
// constant at the recovery condition is below ~t_rec, i.e. whose emission
// energy lies below the cutoff
//
//   Ea* = kT * ( ln(t_rec / tau0) + |V_rec| / V0 )
//
// which evaluates to 0.834 eV (20 °C, 0 V), 0.935 eV (20 °C, −0.3 V),
// 1.090 eV (110 °C, 0 V), and 1.222 eV (110 °C, −0.3 V). The recoverable
// trap density is therefore laid out in segments between those cutoffs so
// that the cumulative weight below each cutoff equals the paper's model
// column (1 % / 14.4 % / 29.2 % / 72.7 % of the *total* shift); the
// > 27 % that survives even condition No. 4 after a 24 h stress is carried
// by the locked permanent component. The weights below were fine-tuned
// numerically (tools/calibrate_bti.cpp) against the exact smooth-decay
// dynamics rather than the sharp-cutoff approximation.
#include "device/calibration.hpp"

namespace dh::device {

// The fitted values: the weights of the seven trap-density segments
// (trap_ensemble.cpp holds their edges; the zero-weight segments are gaps)
// and the precursor generation rate at the reference stress condition
// (V/s). tools/calibrate_bti refits both starting from these.
BtiModelParams paper_calibrated_bti_params() {
  return BtiModelParams{
      .segment_weights = {0.002668, 0.0, 0.384616, 0.0, 0.013495, 0.0,
                          1.273589},
      .gen_rate_ref_v_per_s = 3.312e-7,
  };
}

std::array<TableITarget, 4> table1_targets() {
  using namespace paper_conditions;
  return {{
      {"No. 1 (20C, 0V)", recovery_no1(), 0.010, 0.0066},
      {"No. 2 (20C, -0.3V)", recovery_no2(), 0.144, 0.167},
      {"No. 3 (110C, 0V)", recovery_no3(), 0.292, 0.287},
      {"No. 4 (110C, -0.3V)", recovery_no4(), 0.727, 0.724},
  }};
}

Seconds table1_stress_time() { return hours(24.0); }
Seconds table1_recovery_time() { return hours(6.0); }

}  // namespace dh::device
