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
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/absem/abseval.h"
#include "src/explore/frontier.h"
#include "src/sem/config.h"
#include "src/sem/lower.h"
#include "src/support/cow.h"
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

using AbsPath = std::vector<AbsPathElem>;
using AbsCallString = std::vector<std::uint32_t>;

/// The empty vector every interned empty path or call string points to.
template <typename T>
inline const std::vector<T> kEmptyVector{};

/// Interns vectors: one stable copy per distinct value, so that equal
/// values have equal addresses. Points hold interned pointers; they copy
/// flat and compare identity by address.
template <typename T>
class VectorInterner {
 public:
  const std::vector<T>* operator()(std::vector<T> v) {
    if (v.empty()) return &kEmptyVector<T>;
    return &*pool_.insert(std::move(v)).first;
  }

 private:
  std::set<std::vector<T>> pool_;
};

/// One abstract process: control point + (Tree) fork path or (Clan) ω flag,
/// plus a k-limited abstract procedure string (the call-site suffix): the
/// paper's procedure strings, folded to their last k call symbols. k = 0
/// gives 0-CFA (all call sites merge); larger k separates return flows.
/// Path and call string are interned by the engine that made the point
/// (equal values, equal pointers); the order compares their contents.
struct AbsPoint {
  std::uint32_t proc = 0;
  std::uint32_t pc = 0;
  const AbsPath* path = &kEmptyVector<AbsPathElem>;
  const AbsCallString* cstring = &kEmptyVector<std::uint32_t>;  // most recent last
  bool omega = false;

  /// Identity ignores omega (duplicates merge into one ω point).
  [[nodiscard]] bool same_ident(const AbsPoint& o) const {
    return proc == o.proc && pc == o.pc && path == o.path && cstring == o.cstring;
  }
  friend bool operator==(const AbsPoint& a, const AbsPoint& b) {
    return a.same_ident(b) && a.omega == b.omega;
  }
  friend bool operator<(const AbsPoint& a, const AbsPoint& b) {
    if (a.proc != b.proc) return a.proc < b.proc;
    if (a.pc != b.pc) return a.pc < b.pc;
    if (a.path != b.path) return *a.path < *b.path;
    if (a.cstring != b.cstring) return *a.cstring < *b.cstring;
    return a.omega < b.omega;
  }
};

using AbsControl = std::vector<AbsPoint>;  // sorted, duplicates merged via ω

/// 128-bit fingerprint of a (canonically sorted) control state, covering
/// every identity field of every point. The state table hashes on it and
/// confirms a hit by comparing the full control.
inline support::Fingerprint control_fingerprint(const AbsControl& ctrl) {
  support::Fp128Hasher h;
  h.u32(static_cast<std::uint32_t>(ctrl.size()));
  for (const AbsPoint& p : ctrl) {
    h.u32(p.proc);
    h.u32(p.pc);
    h.u32(static_cast<std::uint32_t>(p.path->size()));
    for (const AbsPathElem& e : *p.path) {
      h.u32(e.site);
      h.u32(e.branch);
    }
    h.u32(static_cast<std::uint32_t>(p.cstring->size()));
    for (std::uint32_t c : *p.cstring) h.u32(c);
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
  /// Collect the folding-level facts: MHP pairs, per-point stores, access
  /// sets and call/fork edges. Off, those AbsResult members stay empty and
  /// each evaluation records only the may-facts, site sizes and reached
  /// statements (all that `check` reads).
  bool folding_facts = true;
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
    const AbsPath* path;
    /// Caller's call string (restored on return) and the callee context it
    /// created (matched against the returning point under k > 0).
    const AbsCallString* caller_cstring;
    const AbsCallString* callee_cstring;
    std::set<AbsLoc> dst;  // where the return value lands (empty: dropped)
    /// Ordered by contents, not addresses: the order fixes return order.
    friend bool operator<(const Continuation& a, const Continuation& b) {
      return std::tie(a.proc, a.pc, *a.path, *a.caller_cstring, *a.callee_cstring, a.dst) <
             std::tie(b.proc, b.pc, *b.path, *b.caller_cstring, *b.callee_cstring, b.dst);
    }
  };

  /// One folded abstract configuration. The control's fingerprint is
  /// computed once, when the control is first enqueued; the store sits
  /// behind a copy-on-write handle, so the per-pop snapshot is a handle
  /// copy and successors that keep the store unchanged share its payload.
  struct State {
    AbsControl ctrl;
    support::Fingerprint fp;
    support::CowBox<Store> store;
    bool queued = false;
    bool evaluated = false;
  };
  static constexpr std::uint32_t kNoState = 0xffffffffu;

  /// The store of one move's successors: either a payload already boxed
  /// (the transferred state's own, when the move left the store as is) or
  /// a fresh store, boxed on the first new state that keeps it. A
  /// successor that only widens into an existing state boxes nothing, and
  /// every new state of one move shares the one box.
  class SuccStore {
   public:
    explicit SuccStore(const support::CowBox<Store>& box) : box_(box) {}
    explicit SuccStore(Store& fresh) : fresh_(&fresh) {}
    [[nodiscard]] const Store& get() const { return box_ ? **box_ : *fresh_; }
    [[nodiscard]] const support::CowBox<Store>& boxed() {
      if (!box_) box_.emplace(std::move(*fresh_));
      return *box_;
    }

   private:
    std::optional<support::CowBox<Store>> box_;
    Store* fresh_ = nullptr;
  };

  // --- control-state plumbing ---------------------------------------------
  static void insert_point(AbsControl& ctrl, AbsPoint p);
  [[nodiscard]] AbsControl with_point_removed(const AbsControl& ctrl, std::size_t idx) const;

  /// The index slot holding the state of `ctrl`, or the empty slot where it
  /// belongs. Probes compare the fingerprint first and then the full
  /// control, so a fingerprint collision never merges two states.
  [[nodiscard]] std::uint32_t& index_slot(const AbsControl& ctrl, const support::Fingerprint& fp);
  void grow_index();
  /// Queues every known state in AbsControl order (the global requeue).
  void requeue_all();

  void enqueue(AbsControl ctrl, SuccStore& store);
  /// Evaluates one state; `first` on its first evaluation.
  void transfer(const AbsControl& ctrl, const support::CowBox<Store>& store, bool first);
  void transfer_point(const AbsControl& ctrl, const support::CowBox<Store>& store,
                      std::size_t idx);

  const sem::LoweredProgram& prog_;
  AbsOptions opts_;
  AbsResult<N> result_;
  /// The abstract semantics (src/absem/abseval.h): frame cells carry the
  /// transferred point's call string, and there is no rely or guarantee.
  AbsEval<N> ev_;

  /// States by dense id in discovery order (a deque: references stay valid
  /// while transfer adds successors).
  std::deque<State> states_;
  /// Open-addressing index over states_ (ids; kNoState = empty), kept at
  /// most half full.
  std::vector<std::uint32_t> index_;
  /// Ids sorted by AbsControl, for the global requeue; ids past the sorted
  /// prefix are merged in at the next requeue.
  std::vector<std::uint32_t> by_control_;
  /// Fixpoint worklist of state ids: FIFO, and a state already waiting
  /// (State::queued) is not enqueued twice.
  explore::FifoFrontier<std::uint32_t> work_;
  VectorInterner<AbsPathElem> paths_;
  VectorInterner<std::uint32_t> cstrings_;
  std::map<std::uint32_t, std::set<Continuation>> conts_;  // proc -> call sites
  bool conts_grew_ = false;
};

// Convenience aliases for the shipped numeric domains.
// (Explicitly instantiated in absexplore.cpp.)

}  // namespace copar::absem

#include "src/absem/absexplore_impl.h"
