// One job of a workload: a generated program taken from source to verdict
// through copar's public entry points, exactly as the user-facing command
// does it, then scored against the program's known answer.
//
//   explore_seq / explore_par : copar::compile -> explore::explore
//                               (stubborn sets; 1 or 4 threads)
//   check_auto / check_tmod   : copar::compile -> check::run_checks
//                               -> DiagnosticEngine::render_text
#pragma once

#include <cstdint>
#include <string>

#include "perfbench/corpus.h"
#include "src/check/check.h"
#include "src/explore/explorer.h"
#include "src/support/diagnostics.h"
#include "src/support/telemetry.h"

namespace perfbench {

/// Per-job configuration budget of the explore workloads. The sequential
/// engine stays under it on every job; the parallel engine's insertion
/// proviso exceeds it on the larger philosophers tables.
inline constexpr std::uint64_t kExploreBudget = 40000;
/// Worker threads of explore_par.
inline constexpr unsigned kParThreads = 4;

[[nodiscard]] bool is_explore(Workload w);

/// The options of `explore --stubborn [--threads 4] --max-configs <budget>`.
[[nodiscard]] copar::explore::ExploreOptions explore_options(Workload w);
/// The options of `check --tier auto` or `check --tier tmod --no-witness`.
[[nodiscard]] copar::check::CheckOptions check_options(Workload w);

/// The first way `r` contradicts `a` ("" when it agrees). A truncated
/// exploration is only held to what it did find.
[[nodiscard]] std::string explore_verdict(const Answer& a, const copar::explore::ExploreResult& r);

/// The first way the findings contradict `a` ("" when they agree).
/// `decided` = the check ran to a definite answer; an undecided one is only
/// held to the findings a sound check must make anyway.
[[nodiscard]] std::string check_verdict(const Answer& a, const copar::DiagnosticEngine& findings,
                                        bool decided);

/// True when the check ended definite: the auto tier's exploration and
/// witness searches all completed, or the tmod fixpoint converged.
[[nodiscard]] bool check_decided(Workload w, const copar::check::CheckSummary& sum);

/// How one job went. Times cover copar's work only, not the scoring.
struct Outcome {
  bool failed = false;     // threw, or the verdict contradicts the answer
  bool undecided = false;  // truncated, budget-exhausted or unconverged
  std::string why;         // what failed
  double compile_ms = 0;
  double verb_ms = 0;      // explore::explore or check::run_checks
  double render_ms = 0;    // check only
  std::uint64_t diagnostics = 0;
  [[nodiscard]] double total_ms() const { return compile_ms + verb_ms + render_ms; }
};

/// Runs `job` as workload `w`'s command and scores the verdict.
Outcome run_job(Workload w, const Job& job);

using copar::telemetry::now_ns;

/// Milliseconds since `start_ns` (a now_ns() reading).
[[nodiscard]] double ms_since(std::uint64_t start_ns);

}  // namespace perfbench
