// Witness schedules: a concrete interleaving reaching a chosen terminal
// configuration (deadlock, assertion violation, fault, or any outcome).
//
// The paper positions the framework for both optimization and debugging
// ("detecting access anomalies or assisting debugging"); a reported fact is
// far more useful with the schedule that exhibits it. The witness explorer
// runs a (full or reduced) exploration that remembers one predecessor per
// configuration and replays the action sequence on demand.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/explore/explorer.h"

namespace copar::explore {

struct WitnessStep {
  sem::Pid pid = 0;                      // process that acted
  std::uint32_t stmt = sem::kNoStmt;     // originating statement
  sem::ActionKind kind = sem::ActionKind::None;
  std::string point;                     // human-readable control point
};

struct Witness {
  std::vector<WitnessStep> steps;
  sem::Configuration terminal;

  /// One line per step: "p2: lock (s4: lock(fork1))".
  [[nodiscard]] std::string to_string(const sem::LoweredProgram& prog) const;
};

/// How a witness search explores: the reduction it fires under and the
/// configuration budget it gives up at (WitnessStats::truncated).
struct WitnessSearch {
  Reduction reduction = Reduction::Full;
  std::uint64_t max_configs = 2'000'000;
};

/// What to search for.
struct WitnessQuery {
  bool want_deadlock = false;
  /// A terminal whose violations contain this statement id (kNoStmt: any).
  std::uint32_t want_violation = sem::kNoStmt;
  /// A terminal whose faults contain this statement id (kNoStmt: any).
  std::uint32_t want_fault = sem::kNoStmt;
  /// Predicate on the terminal configuration (null: none). Applied last.
  std::function<bool(const sem::Configuration&)> predicate;
  /// Predicate checked on *every* visited configuration, terminal or not
  /// (null: none). Used for reachability witnesses, e.g. "a state where
  /// both statements of a racing pair are simultaneously enabled".
  std::function<bool(const sem::Configuration&)> reach_predicate;

  WitnessSearch explore;
};

/// How a witness search ended: the configurations it expanded and whether it
/// gave up on `max_configs` before covering the space. A nullopt result with
/// `truncated == false` is a *refutation* — the full space holds no match —
/// while `truncated == true` is merely budget exhaustion.
struct WitnessStats {
  std::uint64_t configs = 0;
  bool truncated = false;
};

/// Explores until a terminal matching the query is found; nullopt if the
/// (possibly truncated) exploration finds none. `stats`, when non-null,
/// receives the search effort and the truncation verdict.
std::optional<Witness> find_witness(const sem::LoweredProgram& prog, const WitnessQuery& query,
                                    WitnessStats* stats = nullptr);

/// Convenience: a schedule into any deadlock.
std::optional<Witness> find_deadlock(const sem::LoweredProgram& prog);

}  // namespace copar::explore
