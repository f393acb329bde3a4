// Cycle provisos of the exploration core (the ignoring problem, paper §2.3).
//
// A stubborn-set reduction that always fires a strict subset of the enabled
// processes can postpone some process forever around a cycle of the reduced
// graph ("ignoring"). Every engine solves it with one of the two provisos
// in this header:
//
//   * DfsStackProviso — the sequential DFS rule: when a reduced expansion
//     fires an edge back onto a state still on the search stack, the source
//     of the edge is re-expanded fully. Needs the stack, so it exists only
//     in the depth-first engine.
//
//   * fire_with_insertion_proviso — the stackless rule shared by the
//     parallel engine and the witness search: a *reduced* expansion stands
//     only if every fired successor was newly inserted into the visited
//     set; if any successor was already known, the source is re-expanded
//     fully. Order a cycle's states by expansion start: the last one fires
//     an edge to an already-inserted state, so every cycle of the reduced
//     graph contains a fully expanded state. Concurrent insertions by other
//     workers only add full expansions — conservative, never unsound.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sem/step.h"
#include "src/support/diagnostics.h"

namespace copar::explore {

/// DFS-stack membership counts for the sequential cycle proviso. State ids
/// must be dense (the VisitedSet hands them out in insertion order); a
/// count, not a flag, because sleep re-exploration can stack an id twice —
/// and in principle many times, so a narrow counter could wrap and silently
/// turn off the proviso.
class DfsStackProviso {
 public:
  /// Registers the next dense state id (call once per visited insertion).
  void add_state() { counts_.push_back(0); }

  [[nodiscard]] std::size_t num_states() const noexcept { return counts_.size(); }

  /// Marks a stack entry for `id` pushed / popped.
  void enter(std::uint32_t id) {
    counts_[id] += 1;
    require(counts_[id] != 0, "on_stack count overflow");
  }
  void leave(std::uint32_t id) { counts_[id] -= 1; }

  [[nodiscard]] bool on_stack(std::uint32_t id) const { return counts_[id] != 0; }

 private:
  std::vector<std::uint32_t> counts_;
};

/// Fires `expansion` from one state and applies the insertion proviso:
/// when the expansion was `reduced` and some fired successor was not new,
/// the remaining enabled processes are fired as well (full re-expansion).
/// `fire(pid)` performs one transition and returns true when its successor
/// was newly inserted into the visited set. Returns true when the proviso
/// triggered the full re-expansion (callers count it); `proviso_on` false
/// (a search already out of budget) never re-expands.
template <typename FireFn>
bool fire_with_insertion_proviso(const std::vector<sem::Pid>& enabled,
                                 const std::vector<sem::Pid>& expansion, bool reduced,
                                 bool proviso_on, FireFn&& fire) {
  bool all_new = true;
  for (const sem::Pid pid : expansion) {
    if (!fire(pid)) all_new = false;
  }
  if (!reduced || all_new || !proviso_on) return false;
  for (const sem::Pid pid : enabled) {
    if (std::find(expansion.begin(), expansion.end(), pid) != expansion.end()) continue;
    fire(pid);
  }
  return true;
}

}  // namespace copar::explore
