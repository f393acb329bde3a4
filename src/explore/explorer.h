// State-space exploration of cobegin programs (the paper's framework, §2/§4).
//
// The explorer enumerates reachable configurations of the standard
// (instrumented) semantics, deduplicating by canonical key. Reductions:
//
//   Reduction::Full      — expand every enabled process at every step
//                           (the naive interleaving semantics);
//   Reduction::Stubborn  — expand only a stubborn set (Algorithm 1), with
//                           the stack proviso solving the ignoring problem:
//                           when a reduced expansion closes a cycle on the
//                           DFS stack, the state is re-expanded fully.
//
// Virtual coarsening (Observation 5) can be layered on either: a step runs
// a process through its next action and then through following actions as
// long as they are non-critical, so a combined action contains at most one
// critical reference.
//
// The explorer optionally records the raw material of the §5 analyses:
// per-statement/per-function access sets, may-happen-in-parallel and
// conflicting statement pairs, per-allocation-site lifetime facts, and the
// full state graph.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/explore/access.h"
#include "src/explore/staticinfo.h"
#include "src/sem/config.h"
#include "src/sem/step.h"
#include "src/support/stats.h"

namespace copar::explore {

enum class Reduction : std::uint8_t { Full, Stubborn };

struct ExploreOptions {
  Reduction reduction = Reduction::Full;
  bool coarsen = false;
  /// Sleep sets (Godefroid): prune transitions whose interleavings are
  /// covered by earlier siblings. Orthogonal to the stubborn reduction;
  /// reduces fired transitions (edges), preserving all states reachable
  /// by non-pruned orders — result configurations in particular. Uses the
  /// classic re-exploration rule on revisits, which requires retaining
  /// visited configurations (extra memory). Supported by both engines
  /// (the parallel engine stores sleep masks with the visited set); the
  /// one remaining exclusion is sleep_sets + record_graph + threads > 1
  /// (see parallel_unsupported in parexplore.h).
  bool sleep_sets = false;
  /// Abort (result.truncated = true) after this many distinct configurations.
  std::uint64_t max_configs = 2'000'000;
  bool record_graph = false;
  bool record_accesses = false;
  bool record_pairs = false;      // MHP / conflicting statement pairs
  bool record_lifetimes = false;  // per-site escape facts (implies extra work)
  /// Worker threads. 1 = the sequential DFS engine; >1 selects the
  /// work-stealing engine in parexplore.cpp (see docs/PARALLEL.md). Both
  /// engines support sleep sets and the recording payloads; the parallel
  /// engine merges per-worker buffers deterministically after the join.
  unsigned threads = 1;
  /// Keep full canonical key strings in the visited set (pre-fingerprint
  /// behavior) and count observed fingerprint collisions. Costs an order of
  /// magnitude more dedup memory; see src/explore/visited.h.
  bool exact_keys = false;
};

/// Virtual coarsening stops after this many micro-actions in one combined
/// step; hitting it means a "non-critical" local loop ran away (see the
/// coarsen_guard_hits counter and the one-time `coarsen-guard` warning).
inline constexpr int kCoarsenGuardMax = 4096;

struct TerminalInfo {
  sem::Configuration config;
  bool deadlock = false;
};

/// Co-enabledness/conflict facts about an unordered statement pair
/// (first < second in the map key).
struct PairFacts {
  bool co_enabled = false;
  bool w1_r2 = false;  // first writes a location second reads
  bool w1_w2 = false;
  bool r1_w2 = false;
  friend bool operator==(const PairFacts&, const PairFacts&) = default;
};

struct StateGraph {
  struct Edge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint32_t stmt = sem::kNoStmt;
    sem::ActionKind kind = sem::ActionKind::None;
    friend bool operator==(const Edge&, const Edge&) = default;
    friend auto operator<=>(const Edge&, const Edge&) = default;
  };
  std::uint64_t num_nodes = 0;
  std::vector<Edge> edges;
  /// Node ids of terminal configurations (completions and deadlocks).
  std::vector<std::uint32_t> terminal_nodes;
  std::vector<std::uint32_t> deadlock_nodes;
};

/// Graphviz rendering of a recorded state graph (requires record_graph).
/// Terminals are doublecircled, deadlocks filled red; edges carry the
/// acting statement.
std::string to_dot(const StateGraph& graph, const sem::LoweredProgram& prog);

struct ExploreResult {
  std::uint64_t num_configs = 0;      // distinct canonical configurations
  std::uint64_t num_transitions = 0;  // edges fired (post-dedup of sources)
  bool truncated = false;
  /// Terminal configurations (normal completion and deadlocks), deduplicated.
  std::map<std::string, TerminalInfo> terminals;
  bool deadlock_found = false;
  std::set<std::uint32_t> violations;  // failed assert stmt ids anywhere
  std::set<std::pair<std::uint32_t, std::uint8_t>> faults;
  StatRegistry stats;

  // Optional payloads (see ExploreOptions):
  AccessLog accesses;
  std::map<std::pair<std::uint32_t, std::uint32_t>, PairFacts> pairs;
  StateGraph graph;

  /// Canonical keys of the terminal configurations (for set comparisons in
  /// tests: reduction must preserve exactly this set).
  [[nodiscard]] std::set<std::string> terminal_keys() const;

  /// All distinct values global `name` holds across terminal configurations.
  [[nodiscard]] std::set<std::int64_t> terminal_int_values(std::string_view name) const;
};

/// Explores `program`: the sequential DFS engine when options.threads is 1,
/// the work-stealing engine (parallel_explore, parexplore.h) otherwise.
ExploreResult explore(const sem::LoweredProgram& program, const ExploreOptions& options);

/// The sequential DFS engine with the stack proviso (threads is ignored).
ExploreResult sequential_explore(const sem::LoweredProgram& program,
                                 const ExploreOptions& options);

}  // namespace copar::explore
