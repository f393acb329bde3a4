// The static checker battery behind `copar-cli check`.
//
// One pipeline turns the framework's engines into coded, source-located
// diagnostics for every tier (see Tier below, docs/TIERED_CHECKING.md):
//
//   1. An alarm source fills one may-facts record — may-faults, may-fail
//      assertions, uninitialized reads, reached statements, and whether
//      the source was truncated. It is the interval abstract explorer for
//      auto/static/explore and the thread-modular rely/guarantee engine
//      for tmod; both terminate on every program (widening).
//   2. Race candidates come from the static lockset + MHP tier (auto,
//      static), the thread-modular engine (tmod), or, on the explore tier,
//      the co-enabled pairs a full concrete exploration records (the flat
//      abstract anomalies when it is truncated).
//   3. A concrete exploration runs on the explore tier, and on auto only
//      for what the static facts cannot discharge. When it completes it is
//      ground truth (copar programs are closed): run-time faults, failing
//      assertions, deadlocks; abstract may-facts it refutes are dropped.
//      Otherwise the may-facts surface as "possible" warnings.
//   4. One emitter per finding code reports the facts; one race confirmer
//      (a single directed witness search for all candidates, under
//      --pair-budget per candidate) confirms, refutes or leaves undecided
//      each candidate on auto, and on tmod unless --no-witness. The static
//      tier reports candidates as-is.
//
// Concrete findings (and explore-tier races) come with witness
// interleavings (explore/witness) while CheckOptions::max_witnesses lasts.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "src/sem/config.h"
#include "src/sem/program.h"
#include "src/support/diagnostics.h"

namespace copar::check {

/// Which race pipeline runs (docs/TIERED_CHECKING.md).
///
///   * Explore — the legacy pipeline: one full concrete exploration with
///     pair recording is the race oracle.
///   * Static  — the static tier alone, zero exploration: lockset + MHP
///     candidates are reported as possible races, lock-suppressed pairs as
///     `race-guarded` notes.
///   * Auto (default) — the static tier prunes, then a *directed* witness
///     search confirms or refutes each surviving candidate under a per-pair
///     budget; the full exploration runs only for what the static tier
///     cannot discharge (abstract may-faults, may-fail assertions, possible
///     deadlock or unlock-not-held).
///   * Tmod    — the thread-modular rely/guarantee engine (docs/
///     THREAD_MODULAR.md) is the sole analysis: no interleaving enumeration
///     at all, so it answers on programs whose configuration space can
///     never be explored. Its alarms carry a thread-modular provenance
///     note; directed witness searches confirm or refute its race
///     candidates unless --no-witness asks for the pure zero-exploration
///     path.
enum class Tier : std::uint8_t { Auto, Static, Explore, Tmod };

std::string_view tier_name(Tier t);

struct CheckOptions {
  /// Race pipeline (see Tier).
  Tier tier = Tier::Auto;
  /// Search for witness interleavings for error findings (bounded BFS).
  bool witnesses = true;
  /// At most this many witness searches per run (they re-explore).
  std::size_t max_witnesses = 4;
  /// Budgets for the concrete exploration and the abstract fixpoint.
  std::uint64_t max_configs = 200000;
  std::uint64_t abs_max_states = 200000;
  /// Directed-search budget per candidate pair (auto and tmod tiers).
  std::uint64_t pair_budget = 50000;
};

/// Static-tier effectiveness counters (also exported as `check.*` metrics
/// and in the `--json` report).
struct TierStats {
  /// Conflicting statement pairs considered (the candidate universe).
  std::uint64_t pairs_total = 0;
  /// ... of which no syntactic interleaving can co-schedule.
  std::uint64_t pruned_mhp = 0;
  /// ... of which a common must-held lock proves race-free.
  std::uint64_t pruned_lockset = 0;
  /// Candidates that survived both prunes.
  std::uint64_t candidates = 0;
  /// Auto and tmod tiers: candidates confirmed by a directed witness,
  /// refuted by an exhausted search, or undecided when the pair budget ran
  /// out.
  std::uint64_t confirmed = 0;
  std::uint64_t refuted = 0;
  std::uint64_t budget_exhausted = 0;
  /// Explorer configurations expanded on behalf of the race pipeline
  /// (full exploration + directed searches); 0 in the static tier.
  std::uint64_t configs_explored = 0;
};

/// Thread-modular engine facts (--tier=tmod only); the `"tmod"` section of
/// the --json report. Zero-valued with ran=false for the other tiers.
struct TmodStats {
  bool ran = false;
  /// Thread roots analyzed by the rely/guarantee engine.
  std::uint32_t threads = 0;
  /// Widened interference rounds until the global fixpoint.
  std::uint32_t rounds = 0;
  /// The round cap was hit before convergence (alarms then incomplete).
  bool truncated = false;
  /// Rely bindings across threads (size of the interference environment).
  std::uint64_t interference_facts = 0;
  /// Alarms the engine raised (races + may-faults + may-fail assertions +
  /// uninitialized reads), before witness refutation.
  std::uint64_t alarms = 0;
};

struct CheckSummary {
  /// The findings are definite: either a full concrete exploration covered
  /// the state space, or the static tier discharged everything it skipped
  /// (and no directed search ran out of budget).
  bool concrete_exhaustive = false;
  /// A full concrete exploration ran (false when the tiers skipped it).
  bool explored = false;
  Tier tier = Tier::Auto;
  std::uint64_t concrete_configs = 0;
  std::uint64_t abstract_states = 0;
  TierStats stats;
  TmodStats tmod;
};

/// Stable check-code metadata (sorted by id), the single source of truth
/// for docs, SARIF rule tables, and `--list-checks`.
std::span<const RuleInfo> catalog();

/// The catalog entry for `code`; null if unknown.
const RuleInfo* find_rule(std::string_view code);

/// Diagnostic code for a concrete fault kind ("div-zero", "bounds", ...).
std::string_view fault_code(sem::Fault f);

/// Runs every check over `prog`, reporting findings into `engine` (which
/// already carries per-code disables and suppression comments). Findings
/// are sorted by location before returning.
CheckSummary run_checks(const CompiledProgram& prog, DiagnosticEngine& engine,
                        const CheckOptions& opts = {});

}  // namespace copar::check
