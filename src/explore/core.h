// The exploration core: everything the three exploration loops share.
//
// Every engine — sequential DFS (explorer.cpp), the work-stealing parallel
// engine (parexplore.cpp), the witness search (witness.cpp) — handles one
// state the same way: expand_state() scans the enabled processes and picks
// the pids to fire (Algorithm 1's stubborn set under Reduction::Stubborn),
// and core_step() fires one of them — apply the process's next action and,
// under virtual coarsening (Observation 5), keep running it through
// following non-critical actions. Both count into one ExploreCounters, and
// finish_explore() turns a run's totals into the result's stats. The engines
// differ only in frontier policy (frontier.h), proviso (proviso.h), and
// visited backend (visited.h).
//
// A Recorder accumulates the §5 analysis payloads (per-statement/function
// access sets, MHP/conflict pairs, allocation-site lifetime facts) into
// private buffers. The sequential engine owns one; the parallel engine owns
// one per worker and merges them after the join — set unions and sums, so
// the merged log is independent of which worker recorded what.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/explore/explorer.h"
#include "src/sem/cowstats.h"

namespace copar::explore {

/// The event counters of one exploration (or one worker's share of it):
/// plain integers on the hot path, summed across workers after the join.
/// write_to() adds each counter that fired — one that stayed at zero is
/// absent from the stats, so to_string() lists only what happened.
struct ExploreCounters {
  std::uint64_t stubborn_steps = 0;
  std::uint64_t stubborn_singletons = 0;
  std::uint64_t stubborn_reduced_steps = 0;
  std::uint64_t proviso_full_expansions = 0;
  std::uint64_t coarsened_micro_actions = 0;
  std::uint64_t coarsen_guard_hits = 0;
  std::uint64_t truncated_transitions = 0;
  std::uint64_t sleep_suppressed_transitions = 0;
  std::uint64_t sleep_reexplorations = 0;
  std::uint64_t sleep_pids_capped = 0;

  ExploreCounters& operator+=(const ExploreCounters& other);
  void write_to(StatRegistry& stats) const;
};

/// One state's expansion: the next action of every live process, the
/// enabled pids, and the pids to fire. `enabled` is empty exactly when the
/// state is terminal.
struct Expansion {
  std::vector<sem::ActionInfo> infos;  // live processes, in pid order
  std::vector<sem::Pid> enabled;
  std::vector<sem::Pid> fire;
  bool reduced = false;  // `fire` is a strict subset of `enabled`

  /// The ActionInfo of live process `pid` — a core_step hint.
  [[nodiscard]] const sem::ActionInfo& info(sem::Pid pid) const;
};

/// Expands `cfg`: every enabled pid under Reduction::Full, a stubborn set
/// (Algorithm 1, timed as the Stubborn phase and counted in `counters`)
/// under Reduction::Stubborn when more than one process is enabled.
[[nodiscard]] Expansion expand_state(const sem::Configuration& cfg, const StaticInfo& static_info,
                                     Reduction reduction, ExploreCounters& counters);

/// Accumulates the optional analysis payloads of one exploration (or one
/// worker's share of it). A default-constructed Recorder records nothing
/// and costs one branch per step.
class Recorder {
 public:
  Recorder() = default;
  explicit Recorder(const ExploreOptions& options)
      : accesses_on_(options.record_accesses),
        pairs_on_(options.record_pairs),
        lifetimes_on_(options.record_lifetimes) {}

  /// True when core_step must materialize ActionInfo for recording.
  [[nodiscard]] bool wants_step_facts() const noexcept { return accesses_on_ || lifetimes_on_; }

  void action(const sem::Configuration& cfg, const sem::ActionInfo& info);
  void pairs(const std::vector<sem::ActionInfo>& infos);
  void return_lifetime(const sem::Configuration& before, sem::Pid pid,
                       const sem::Configuration& after);
  void terminal_lifetimes(const sem::Configuration& cfg);

  /// Folds this recorder's buffers into `result` (set unions, ORed flags,
  /// summed counts) — commutative and associative across workers.
  void merge_into(ExploreResult& result) const;

 private:
  bool accesses_on_ = false;
  bool pairs_on_ = false;
  bool lifetimes_on_ = false;
  AccessLog accesses_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, PairFacts> pairs_;
};

/// One (possibly coarsened) step of process `pid` from `cfg` — the single
/// step implementation behind every engine. Records fired actions and
/// return lifetimes through `rec` when it wants them.
///
/// `info_hint`, when non-null, must be the ActionInfo an engine already
/// computed for (cfg, pid) — e.g. for sleep sets or graph recording — and
/// lets the step fire without decoding the instruction a second time.
[[nodiscard]] sem::Configuration core_step(const sem::Configuration& cfg, sem::Pid pid,
                                           const StaticInfo& static_info, bool coarsen,
                                           Recorder& rec, ExploreCounters& counters,
                                           const sem::ActionInfo* info_hint = nullptr);

/// A terminal's canonical key, timed as the Canonicalize phase. Terminals
/// are few; this is the only place fingerprint mode still serializes a key.
[[nodiscard]] std::string terminal_key(const sem::Configuration& cfg);

/// What one run's visited set and frontier cost, for finish_explore.
struct Footprint {
  std::uint64_t visited_bytes = 0;
  std::uint64_t visited_configs = 0;
  std::uint64_t fingerprint_collisions = 0;
  std::uint64_t frontier_peak_bytes = 0;
};

/// The shared end of a run: writes the configs / transitions / terminals /
/// deadlocks counters and `counters`, the visited, COW (the delta since
/// `cow_at_start`) and frontier-peak gauges and, with metrics on,
/// peak_rss_bytes; closes the live gauges on the final numbers and
/// publishes the stats. Engine-specific stats go in before the call.
void finish_explore(ExploreResult& result, const ExploreCounters& counters,
                    const Footprint& footprint, const sem::cowstats::Snapshot& cow_at_start);

}  // namespace copar::explore
