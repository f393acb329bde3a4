// The traced run: the per-layer split of a workload, measured from outside
// the program.
//
//   * each public stage function a command is built from is timed around
//     its call (compile, explore, run_checks, render_text, and — replayed in
//     the command's order and with its options — AbsExplorer::run, the
//     static race tier, the concrete exploration, every find_witness,
//     tmod_analyze and find_dead_stores);
//   * per-state work is replayed through the public sem/explore calls on
//     the first states of each explore job;
//   * the phase timers and StatRegistry counters copar already exports are
//     read from one run of each job with the phase timers on.
//
// The replayed check stages must reproduce the real run_checks counters
// exactly; a job whose replay disagrees counts as failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/corpus.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// States replayed per explore job (the first ones in stubborn DFS order).
inline constexpr std::size_t kReplayStates = 400;

/// One traced pass over `jobs`: every per-layer metric, in a fixed order.
RunReport traced_run(Workload w, const std::vector<Job>& jobs);

}  // namespace perfbench
