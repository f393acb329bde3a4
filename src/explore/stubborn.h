// Stubborn-set computation (the paper's §2.2–2.3, Algorithm 1).
//
// At an expansion step, instead of firing every enabled process, fire only
// the enabled members of a *stubborn set* T of processes, where T is closed
// under the rules:
//
//   (1) if p ∈ T is enabled and q's next action does not commute with p's
//       (w_p ∩ (r_q ∪ w_q) ≠ ∅, or r_p ∩ w_q ≠ ∅, or either may fault on
//       state the other writes), then q ∈ T;
//   (2) if p ∈ T is disabled, the processes that can enable it are in T:
//       for a Join, the pending children (transitively, their descendants);
//       for a Lock, the current owner of the lock.
//
// This is the process-level ("improved Overman") formulation the paper
// gives: conflicts are detected with the read/write sets of each process's
// next action. Every enabled process is a seed; its closure is the set
// reachable from it over the rules above, read off one must-include matrix
// per state whose rows are filled on first use. We keep a closure with the
// fewest enabled members (preferring singletons whose action is purely
// local — the paper's locality property).
#pragma once

#include <vector>

#include "src/sem/step.h"

namespace copar::explore {

struct StubbornChoice {
  /// Pids whose (enabled) actions to fire at this step.
  std::vector<sem::Pid> expand;
  /// True if expand covers every enabled process (no reduction happened).
  bool is_full = false;
};

class StaticInfo;

/// `infos` must contain the ActionInfo of every live process of `cfg`
/// (enabled or not), as produced by sem::all_action_infos. `static_info`
/// supplies the future-access summaries the closure rules consult: a fired
/// action conflicts with process q if it writes a class q may ever access,
/// or reads a class q may ever write.
[[nodiscard]] StubbornChoice stubborn_set(const sem::Configuration& cfg,
                                          const std::vector<sem::ActionInfo>& infos,
                                          const StaticInfo& static_info);

/// The next-action commutation test (w_a∩(r_b∪w_b) / r_a∩w_b on concrete
/// locations). Exposed for the dependence analyses and tests; the stubborn
/// closure itself uses the stronger future-class test.
[[nodiscard]] bool actions_conflict(const sem::ActionInfo& a, const sem::ActionInfo& b);

}  // namespace copar::explore
