// Witness schedules: a concrete interleaving reaching a chosen terminal
// configuration (deadlock, assertion violation, fault, or any outcome).
//
// The paper positions the framework for both optimization and debugging
// ("detecting access anomalies or assisting debugging"); a reported fact is
// far more useful with the schedule that exhibits it. The witness explorer
// runs a (full or reduced) exploration that remembers one predecessor per
// configuration and replays the action sequence on demand. One breadth-first
// search answers a whole list of queries: its order depends on the program
// and the reduction only, so each query gets exactly the answer a search of
// its own would give.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
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
  /// A reachable configuration where both statements are enabled — two
  /// enabled instances when they are equal (kNoStmt: none). Like
  /// reach_predicate, but read off the enabled actions the search decodes
  /// anyway: the race confirmer's query.
  std::pair<std::uint32_t, std::uint32_t> co_enabled{sem::kNoStmt, sem::kNoStmt};

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

/// One query's answer: its witness, if found, and its search effort.
struct WitnessAnswer {
  std::optional<Witness> witness;
  WitnessStats stats;
};

/// Answers every query with one breadth-first search, which stops once each
/// query is decided: matched, out of its own `max_configs`, or refuted when
/// the space runs out. The queries must share one `explore.reduction`. A
/// query is charged the configurations the search had visited when it was
/// decided, so each answer equals that of find_witness on the query alone.
/// `static_info`, when non-null, is `prog`'s StaticInfo; otherwise the
/// search builds one.
std::vector<WitnessAnswer> find_witnesses(const sem::LoweredProgram& prog,
                                          std::span<const WitnessQuery> queries,
                                          const StaticInfo* static_info = nullptr);

/// Explores until a configuration matching the query is found; nullopt if
/// the (possibly truncated) exploration finds none. `stats`, when non-null,
/// receives the search effort and the truncation verdict.
std::optional<Witness> find_witness(const sem::LoweredProgram& prog, const WitnessQuery& query,
                                    WitnessStats* stats = nullptr);

/// Convenience: a schedule into any deadlock.
std::optional<Witness> find_deadlock(const sem::LoweredProgram& prog);

}  // namespace copar::explore
