// Abstract exploration: the non-standard semantics of §4 executed over
// abstract configurations, with pluggable folding (§6).
//
// An abstract configuration is a *control state* — a canonical set of
// abstract process points — plus an abstract store (AbsLoc -> AbsValue)
// associated with it. Folding modes:
//
//   Folding::Tree — points carry their fork path: the abstract
//     configuration is the tree of live control points. This is Taylor's
//     "concurrency state" (§6.1): configurations that differ only in
//     data or in process identities fold together.
//
//   Folding::Clan — points drop the fork path and carry a 1/ω multiplicity
//     instead: processes executing the same code from the same cobegin
//     branch fold into one abstract process. This is McDowell's clan /
//     virtual concurrency state (§6.2): "if several tasks are executing
//     the same sequence of statements, it is often not necessary to know
//     exactly how many of those tasks are at a certain point".
//
// Call stacks are abstracted 0-CFA style: a point is (proc, pc) and returns
// flow to every discovered call site of the proc. Stores use weak updates
// on summary locations (frames, heap) and strong updates on the unique
// globals frame. The engine iterates to a fixpoint with widening, so it
// terminates on every program, including ones the concrete explorer cannot
// exhaust — that is the point of §6.
//
// Soundness note (documented deviation): Clan mode implements McDowell's
// join rule — a coend waits while any clan member of one of its branches is
// live. This is exact under McDowell's model (at most one simultaneously
// active instance of each cobegin site); if a site can be active twice
// concurrently, a join may be delayed relative to the concrete semantics.
// Tree mode has no such caveat and is the default.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/absem/abseval.h"
#include "src/explore/frontier.h"
#include "src/sem/config.h"
#include "src/sem/lower.h"
#include "src/support/fingerprint.h"
#include "src/support/stats.h"

namespace copar::absem {

enum class Folding : std::uint8_t { Tree, Clan };

struct AbsPathElem {
  std::uint32_t site = 0;
  std::uint32_t branch = 0;
  friend bool operator==(const AbsPathElem&, const AbsPathElem&) = default;
  friend auto operator<=>(const AbsPathElem&, const AbsPathElem&) = default;
};

/// One abstract process: control point + (Tree) fork path or (Clan) ω flag,
/// plus a k-limited abstract procedure string (the call-site suffix): the
/// paper's procedure strings, folded to their last k call symbols. k = 0
/// gives 0-CFA (all call sites merge); larger k separates return flows.
struct AbsPoint {
  std::uint32_t proc = 0;
  std::uint32_t pc = 0;
  std::vector<AbsPathElem> path;
  std::vector<std::uint32_t> cstring;  // call-site stmt ids, most recent last
  bool omega = false;

  /// Identity ignores omega (duplicates merge into one ω point).
  [[nodiscard]] auto ident() const { return std::tie(proc, pc, path, cstring); }
  friend bool operator==(const AbsPoint& a, const AbsPoint& b) {
    return a.ident() == b.ident() && a.omega == b.omega;
  }
  friend bool operator<(const AbsPoint& a, const AbsPoint& b) {
    return std::tie(a.proc, a.pc, a.path, a.cstring, a.omega) <
           std::tie(b.proc, b.pc, b.path, b.cstring, b.omega);
  }
};

using AbsControl = std::vector<AbsPoint>;  // sorted, duplicates merged via ω

/// 128-bit fingerprint of a (canonically sorted) control state, covering
/// every identity field of every point. The worklist's queued-membership
/// check keys on this instead of holding full AbsControl copies.
inline support::Fingerprint control_fingerprint(const AbsControl& ctrl) {
  support::Fp128Hasher h;
  h.u32(static_cast<std::uint32_t>(ctrl.size()));
  for (const AbsPoint& p : ctrl) {
    h.u32(p.proc);
    h.u32(p.pc);
    h.u32(static_cast<std::uint32_t>(p.path.size()));
    for (const AbsPathElem& e : p.path) {
      h.u32(e.site);
      h.u32(e.branch);
    }
    h.u32(static_cast<std::uint32_t>(p.cstring.size()));
    for (std::uint32_t c : p.cstring) h.u32(c);
    h.u8(p.omega ? 1 : 0);
  }
  return h.finalize();
}

struct AbsOptions {
  Folding folding = Folding::Tree;
  /// Fork paths longer than this are truncated (deep fork recursion);
  /// truncation only merges more states.
  std::size_t path_limit = 8;
  /// k-limit of the abstract procedure (call) strings carried by points:
  /// 0 = 0-CFA (all call sites of a function merge; cheapest), k > 0 keeps
  /// the last k call sites apart (more states, more precise returns).
  std::size_t call_string_k = 0;
  std::uint64_t max_states = 200000;
};

template <NumDomain N>
struct AbsResult {
  std::uint64_t num_states = 0;
  bool truncated = false;
  /// May-happen-in-parallel statement pairs (lo <= hi; (s,s) = self-parallel).
  std::set<std::pair<std::uint32_t, std::uint32_t>> mhp;
  /// Assertions that may fail on some abstract path.
  std::set<std::uint32_t> may_fail_asserts;
  /// Run-time errors possible on some abstract path: (stmt id, expr id,
  /// sem::Fault as uint8). Sound over-approximation — a listed fault *may*
  /// occur; absence means the abstract semantics proves it cannot.
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint8_t>> may_faults;
  /// Join of the abstract allocation size per alloc statement id.
  std::map<std::uint32_t, N> site_sizes;
  /// Statement ids whose action was ever enabled in a reached abstract
  /// state. Statements lowered to instructions but absent here are
  /// unreachable under the abstract semantics.
  std::set<std::uint32_t> reached_stmts;
  /// Reads of never-written cells: (stmt id, expr id, location). Implicit
  /// zero-initialization means these are "reads of the default 0", which
  /// the uninitialized-read check reports for named variables.
  std::set<std::tuple<std::uint32_t, std::uint32_t, AbsLoc>> uninit_reads;
  /// Direct abstract read/write sets per proc.
  std::map<std::uint32_t, std::set<AbsLoc>> reads_direct;
  std::map<std::uint32_t, std::set<AbsLoc>> writes_direct;
  /// Abstract read/write sets per statement id.
  std::map<std::uint32_t, std::set<AbsLoc>> stmt_reads;
  std::map<std::uint32_t, std::set<AbsLoc>> stmt_writes;
  /// Discovered call edges (caller proc -> callee proc) and fork edges.
  std::map<std::uint32_t, std::set<std::uint32_t>> call_edges;
  std::map<std::uint32_t, std::set<std::uint32_t>> fork_edges;
  /// Callee procs discovered per call statement (for treating a call
  /// statement as a unit with its callee's transitive effects).
  std::map<std::uint32_t, std::set<std::uint32_t>> stmt_callees;
  /// Join of the stores of every state containing (proc, pc).
  std::map<std::pair<std::uint32_t, std::uint32_t>, AbsStore<N>> point_stores;
  StatRegistry stats;

  /// Transitive side effects of `proc`: its own accesses plus those of
  /// everything reachable through calls and forks.
  [[nodiscard]] std::pair<std::set<AbsLoc>, std::set<AbsLoc>> effects_of(
      std::uint32_t proc) const {
    std::set<AbsLoc> reads;
    std::set<AbsLoc> writes;
    std::set<std::uint32_t> seen;
    std::vector<std::uint32_t> work = {proc};
    while (!work.empty()) {
      const std::uint32_t p = work.back();
      work.pop_back();
      if (!seen.insert(p).second) continue;
      if (auto it = reads_direct.find(p); it != reads_direct.end()) {
        reads.insert(it->second.begin(), it->second.end());
      }
      if (auto it = writes_direct.find(p); it != writes_direct.end()) {
        writes.insert(it->second.begin(), it->second.end());
      }
      for (const auto* edges : {&call_edges, &fork_edges}) {
        if (auto it = edges->find(p); it != edges->end()) {
          for (std::uint32_t q : it->second) work.push_back(q);
        }
      }
    }
    return {std::move(reads), std::move(writes)};
  }

  /// Abstract value of `loc` observable at control point (proc, pc);
  /// bottom if the point was never reached.
  [[nodiscard]] AbsValue<N> value_at(std::uint32_t proc, std::uint32_t pc,
                                     const AbsLoc& loc) const {
    auto it = point_stores.find({proc, pc});
    if (it == point_stores.end()) return AbsValue<N>::bottom();
    AbsValue<N> v = it->second.get(loc);
    if (v.is_bottom()) return AbsValue<N>::of_int(0);  // never-written cell
    return v;
  }
};

template <NumDomain N>
class AbsExplorer {
 public:
  AbsExplorer(const sem::LoweredProgram& program, AbsOptions options);

  AbsResult<N> run();

 private:
  using Value = AbsValue<N>;
  using Store = AbsStore<N>;

  struct Continuation {
    std::uint32_t proc;
    std::uint32_t pc;
    /// Fork path of the calling point: a return resumes only continuations
    /// of the same thread context (otherwise returns would teleport control
    /// across threads and blow up the control-state space).
    std::vector<AbsPathElem> path;
    /// Caller's call string (restored on return) and the callee context it
    /// created (matched against the returning point under k > 0).
    std::vector<std::uint32_t> caller_cstring;
    std::vector<std::uint32_t> callee_cstring;
    std::set<AbsLoc> dst;  // where the return value lands (empty: dropped)
    friend auto operator<=>(const Continuation&, const Continuation&) = default;
  };

  // --- control-state plumbing ---------------------------------------------
  static void insert_point(AbsControl& ctrl, AbsPoint p);
  [[nodiscard]] AbsControl with_point_removed(const AbsControl& ctrl, std::size_t idx) const;

  void enqueue(AbsControl ctrl, Store store);
  void transfer(const AbsControl& ctrl, const Store& store);
  void transfer_point(const AbsControl& ctrl, const Store& store, std::size_t idx);

  const sem::LoweredProgram& prog_;
  AbsOptions opts_;
  AbsResult<N> result_;
  /// The abstract semantics (src/absem/abseval.h): frame cells carry the
  /// transferred point's call string, and there is no rely or guarantee.
  AbsEval<N> ev_;

  std::map<AbsControl, Store> states_;
  /// Fixpoint worklist: FIFO with fingerprint-keyed queued-membership (a
  /// control already waiting is not enqueued twice), shared with the
  /// exploration engines (src/explore/frontier.h).
  explore::UniqueFifo<AbsControl> work_;
  std::map<std::uint32_t, std::set<Continuation>> conts_;  // proc -> call sites
  bool conts_grew_ = false;
};

// Convenience aliases for the shipped numeric domains.
// (Explicitly instantiated in absexplore.cpp.)

}  // namespace copar::absem

#include "src/absem/absexplore_impl.h"
