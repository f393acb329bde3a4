// Shared main() for the benchmark binaries: google-benchmark's console
// output plus the copar telemetry JSON report next to it.
//
// Every bench_*.cpp ends with COPAR_BENCH_MAIN() instead of
// BENCHMARK_MAIN(). Behavior:
//
//   * default              — run benchmarks, print the usual console table,
//     then print one JSON document (captured per-benchmark counters and
//     times, memory) to stdout. Phase timers stay OFF so the timed loops
//     are not perturbed.
//   * --copar_json=PATH    — additionally enable the phase timers and
//     write the JSON document to PATH instead of stdout
//     (scripts/run_experiments.sh uses this to collect results/*.json).
#pragma once

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "src/explore/report.h"
#include "src/support/json.h"
#include "src/support/telemetry.h"

namespace copar::benchsupport {

struct CapturedRun {
  std::string name;
  double real_time_ns = 0;
  std::uint64_t iterations = 0;
  std::map<std::string, double> counters;
};

/// Console output as usual, but every run is also captured for the JSON
/// report. Color only when stdout is a terminal (an explicit reporter
/// bypasses google-benchmark's own --benchmark_color handling, and color
/// codes would pollute redirected results/*.txt artifacts).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  CapturingReporter()
      : benchmark::ConsoleReporter(isatty(fileno(stdout)) ? OO_ColorTabular : OO_Tabular) {}

  std::vector<CapturedRun> captured;

  void ReportRuns(const std::vector<Run>& report) override {
    benchmark::ConsoleReporter::ReportRuns(report);
    for (const Run& r : report) {
      if (r.error_occurred) continue;
      CapturedRun c;
      c.name = r.benchmark_name();
      c.real_time_ns = r.GetAdjustedRealTime();
      c.iterations = static_cast<std::uint64_t>(r.iterations);
      for (const auto& [k, v] : r.counters) c.counters[k] = v.value;
      captured.push_back(std::move(c));
    }
  }
};

inline void write_report(std::ostream& os, const char* binary,
                         const std::vector<CapturedRun>& runs) {
  support::JsonWriter w(os);
  w.begin_object();
  w.key("tool");
  w.value("copar-bench");
  w.key("binary");
  w.value(binary);
  w.key("runs");
  w.begin_array();
  for (const CapturedRun& r : runs) {
    w.begin_object();
    w.key("name");
    w.value(r.name);
    w.key("real_time_ns");
    w.value(r.real_time_ns);
    w.key("iterations");
    w.value(r.iterations);
    w.key("counters");
    w.begin_object();
    for (const auto& [k, v] : r.counters) {
      w.key(k);
      w.value(v);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  telemetry::write_phases(w);
  telemetry::write_memory(w);
  w.end_object();
  os << '\n';
}

inline int run_main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> kept;
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i];
    constexpr std::string_view kFlag = "--copar_json=";
    if (a.rfind(kFlag, 0) == 0) {
      json_path = a.substr(kFlag.size());
    } else {
      kept.push_back(argv[i]);
    }
  }
  int kept_argc = static_cast<int>(kept.size());

  // Phase timers only for explicit collection runs: the default invocation
  // measures the engines un-instrumented.
  if (!json_path.empty()) telemetry::Telemetry::global().enable_metrics();

  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const char* binary = argc > 0 ? argv[0] : "bench";
  if (json_path.empty()) {
    write_report(std::cout, binary, reporter.captured);
  } else {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << '\n';
      return 1;
    }
    write_report(out, binary, reporter.captured);
  }
  return 0;
}

}  // namespace copar::benchsupport

#define COPAR_BENCH_MAIN()                                            \
  int main(int argc, char** argv) {                                   \
    return copar::benchsupport::run_main(argc, argv);                 \
  }
