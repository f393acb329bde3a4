// Named counters, gauges, and timings for exploration/analysis statistics.
//
// The paper's evaluation metric is state counts (configurations generated,
// transitions fired, interleavings pruned); StatRegistry gives every engine
// a uniform way to expose them to tests, benchmarks, and the `--json`
// report. Three kinds:
//
//   * counters — monotonically accumulated event counts (`add`/`set`).
//     Hot loops count in a plain struct and add each non-zero counter once
//     at the end of the run, so a counter that never fired stays absent.
//   * gauges   — point-in-time measurements (bytes resident, visited-set
//     size estimates). Reported separately; never mixed into to_string()
//     so existing text output stays stable.
//   * timings  — accumulated nanoseconds per named activity (usually
//     copied from the telemetry phase timers at report time).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace copar {

class StatRegistry {
 public:
  /// Adds `delta` to counter `name`, creating it at zero on first use.
  void add(const std::string& name, std::uint64_t delta = 1);

  /// Sets counter `name` to `value`.
  void set(const std::string& name, std::uint64_t value);

  /// Current value (0 if never touched).
  [[nodiscard]] std::uint64_t get(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const noexcept { return counters_; }

  /// Sets gauge `name` (point-in-time measurement) to `value`.
  void set_gauge(const std::string& name, std::uint64_t value);

  /// Current gauge value (0 if never set).
  [[nodiscard]] std::uint64_t gauge(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t>& gauges() const noexcept {
    return gauges_;
  }

  /// Accumulates `ns` nanoseconds into timing `name`.
  void add_time_ns(const std::string& name, std::uint64_t ns);

  [[nodiscard]] const std::map<std::string, std::uint64_t>& times_ns() const noexcept {
    return times_ns_;
  }

  /// Key-wise merge of `other` into this registry: every counter, gauge,
  /// and timing in `other` replaces (or creates) the same-named entry
  /// here. Used by the telemetry publish seam so multi-engine commands
  /// accumulate one combined registry.
  void overlay(const StatRegistry& other);

  /// "name=value" lines, sorted by name — counters only (gauges and
  /// timings are report-only kinds, so this output is stable).
  [[nodiscard]] std::string to_string() const;

  void clear() {
    counters_.clear();
    gauges_.clear();
    times_ns_.clear();
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> gauges_;
  std::map<std::string, std::uint64_t> times_ns_;
};

}  // namespace copar
