// The small-step transition relation of the standard semantics.
//
// Each live process has at most one *next action* (the paper's model:
// deterministic processes, nondeterminism only from interleaving).
// `action_info` dry-runs the action to report enabledness and its read and
// write sets — the inputs to stubborn-set conflict detection (§2) and to
// the dependence analyses (§5.2). `apply_action` produces the successor
// configuration.
//
// Micro-step folding: unconditional jumps and the bookkeeping exit of a
// finished cobegin branch are folded into the preceding action, so that one
// transition corresponds to one elementary statement, matching how the
// paper counts configurations (e.g. the 13-configuration Figure 5).
// A function's implicit return at the end of its body *is* an action
// (procedure exit is a recorded movement of the instrumented semantics).
#pragma once

#include <vector>

#include "src/sem/config.h"
#include "src/support/bitset.h"

namespace copar::sem {

enum class ActionKind : std::uint8_t {
  None,
  Assign,
  Alloc,
  Call,
  Return,
  Branch,
  Fork,
  Join,
  Lock,
  Unlock,
  Assert,
};

std::string_view action_kind_name(ActionKind k);

constexpr std::uint32_t kNoStmt = 0xffffffffu;

struct ActionInfo {
  bool exists = false;   // live process positioned at an instruction
  bool enabled = false;  // may fire now (locks/joins can be disabled)
  ActionKind kind = ActionKind::None;
  Pid pid = kNoPid;
  std::uint32_t proc = 0;
  std::uint32_t pc = 0;
  const Instr* instr = nullptr;
  /// Originating statement id (kNoStmt for the synthesized implicit return).
  std::uint32_t stmt_id = kNoStmt;
  /// Store locations the action reads/writes (dense ids; see Store::loc_id).
  DynamicBitset reads;
  DynamicBitset writes;
  /// Dry run faulted: firing the action yields a fault state. The partial
  /// read set up to the fault is retained; the action writes nothing.
  bool may_fault = false;
  /// For Lock/Unlock: the lock cell, valid when !may_fault.
  bool has_lock_loc = false;
  ObjId lock_obj = kNoObj;
  std::uint32_t lock_off = 0;
};

/// Dry-runs process `pid`'s next action in `cfg`.
[[nodiscard]] ActionInfo action_info(const Configuration& cfg, Pid pid);

/// ActionInfo for every live process (enabled or not), in pid order.
[[nodiscard]] std::vector<ActionInfo> all_action_infos(const Configuration& cfg);

/// Fires `pid`'s next action. Precondition: action exists and is enabled.
/// Returns the successor configuration, sealed (see Configuration::seal);
/// cfg is not modified.
[[nodiscard]] Configuration apply_action(const Configuration& cfg, Pid pid);

/// Fires the action `info` describes without re-decoding the instruction —
/// the fast path when action_info() already established enablement.
/// Precondition: `info` was computed from this `cfg` (same control point);
/// info.exists && info.enabled.
[[nodiscard]] Configuration apply_action(const Configuration& cfg, const ActionInfo& info);

/// True when some process is live but none has an enabled action (e.g.
/// everyone blocked on locks/joins) — the "infinite wait" of Taylor's
/// analysis.
[[nodiscard]] bool is_deadlock(const Configuration& cfg);

}  // namespace copar::sem
