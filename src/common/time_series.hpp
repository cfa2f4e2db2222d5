// A simple (time, value) series used to record every simulated waveform:
// ring-oscillator frequency under BTI, wire resistance under EM, node
// voltages in the circuit simulator, core fmax in the system simulator.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace dh {

namespace ckpt {
class Serializer;
class Deserializer;
}  // namespace ckpt

class TimeSeries {
 public:
  TimeSeries() = default;
  TimeSeries(std::string name, std::string unit)
      : name_(std::move(name)), unit_(std::move(unit)) {}

  /// Append a sample; time must be non-NaN and non-decreasing.
  void append(Seconds t, double value);

  /// Make room for `n` samples in all, so appends up to then allocate
  /// nothing.
  void reserve(std::size_t n);

  [[nodiscard]] std::size_t size() const { return times_.size(); }
  [[nodiscard]] bool empty() const { return times_.empty(); }

  [[nodiscard]] Seconds time_at(std::size_t i) const;
  [[nodiscard]] double value_at(std::size_t i) const;

  [[nodiscard]] Seconds front_time() const;
  [[nodiscard]] Seconds back_time() const;
  [[nodiscard]] double front_value() const;
  [[nodiscard]] double back_value() const;

  /// Linear interpolation at time t (clamped to the series range); t must
  /// not be NaN.
  [[nodiscard]] double sample(Seconds t) const;

  [[nodiscard]] double min_value() const;
  [[nodiscard]] double max_value() const;

  /// Resample onto a uniform grid of n points across the series range.
  [[nodiscard]] TimeSeries resampled(std::size_t n) const;

  /// Series with every value multiplied by `factor`.
  [[nodiscard]] TimeSeries scaled(double factor) const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& unit() const { return unit_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] const std::vector<double>& raw_times() const { return times_; }
  [[nodiscard]] const std::vector<double>& raw_values() const {
    return values_;
  }

  /// Checkpoint support: bit-exact snapshot of name, unit, and samples.
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  std::string name_;
  std::string unit_;
  std::vector<double> times_;   // seconds
  std::vector<double> values_;
};

/// Render aligned series values at shared sample times for terminal
/// output; used by the figure-reproduction benches.
void print_series_table(std::ostream& os, const std::vector<TimeSeries>& series,
                        std::size_t rows);

}  // namespace dh
