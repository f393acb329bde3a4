// Machine-readable exploration report (the `copar-cli --json` document).
//
// One JSON object per invocation: the options that produced the run, every
// StatRegistry counter and gauge, per-phase milliseconds from the global
// telemetry, memory estimates, and the result summary (terminals,
// deadlocks, violations, faults). Benchmarks and scripts parse this
// instead of scraping free-form stdout.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "src/explore/explorer.h"
#include "src/support/json.h"

namespace copar::explore {

/// Writes the full report object for an exploration. When `prog` is
/// non-null, a per-terminal "outcomes" array with the final global values
/// is included (the `run` command's outcome list, machine-readable).
void write_json_report(support::JsonWriter& w, std::string_view command, std::string_view file,
                       const ExploreResult& r, const ExploreOptions& o,
                       const sem::LoweredProgram* prog = nullptr);

}  // namespace copar::explore

namespace copar::telemetry {

/// Writes `"<key>": {"<name>": <value>, ...}` with every entry of each of
/// `maps`, in turn (a report's "counters" and "gauges").
void write_stat_map(support::JsonWriter& w, std::string_view key,
                    std::initializer_list<const std::map<std::string, std::uint64_t>*> maps);

/// Writes the "phases_ms" and "phase_counts" members: the accumulated
/// self-milliseconds and the completed scopes of every phase that ran,
/// from the global telemetry instance.
void write_phases(support::JsonWriter& w);

/// Writes the "memory" member: the peak RSS, then `visited_bytes` when it
/// is nonzero.
void write_memory(support::JsonWriter& w, std::uint64_t visited_bytes = 0);

}  // namespace copar::telemetry
