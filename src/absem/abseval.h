// The abstract semantics of §4: one evaluator for every abstract engine.
//
// Expression evaluation, lvalue resolution, strong/weak store updates,
// branch refinement, may-fault and uninitialized-read recording, and the
// transfer functions of the straight-line instructions (Assign, Alloc,
// Lock, Unlock, Assert, Branch) live here once. The engines keep only what
// is genuinely theirs: AbsExplorer its control states, folding and
// Call/Return/Fork/ForkRange/Join; the thread-modular engine (tmod.cpp) its
// point worklist, rely/guarantee rounds and context-insensitive calls and
// forks. What differs between them is data the engine sets, not a code path:
//
//   rely         reads join it (tmod: the other threads' writes), or null;
//   guarantee    writes join into it (tmod: this thread's writes), or null;
//   cstring      the call string that qualifies frame cells, or null for
//                context 0 (tmod, and k = 0 folding);
//   recording    may-facts are recorded (off in tmod's widened rounds);
//   entry_called the entry proc has callers, so its frame is a summary and
//                branch refinement may not strongly update it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/absem/interference.h"
#include "src/lang/ast.h"
#include "src/sem/lower.h"
#include "src/sem/step.h"
#include "src/support/cow.h"
#include "src/support/diagnostics.h"
#include "src/support/hash.h"

namespace copar::absem {

template <NumDomain N>
using AbsStore = absdom::MapLattice<AbsLoc, AbsValue<N>>;

/// absdom::widen_into on a store behind a copy-on-write handle. An unshared
/// payload grows in place (MapLattice::widen_with); a shared one (say, with
/// the snapshot of the state being transferred) is never mutated: it is
/// cloned, and only when it grows. Returns true if the store grew.
template <NumDomain N>
bool widen_into(support::CowBox<AbsStore<N>>& acc, const AbsStore<N>& delta) {
  if (acc.shared() && delta.leq(*acc)) return false;
  return acc.mut().widen_with(delta);
}

template <NumDomain N>
class AbsEval {
 public:
  using Value = AbsValue<N>;
  using Store = AbsStore<N>;

  /// Statement context outside any action (global initializers): nothing
  /// is recorded there.
  static constexpr std::uint32_t kNoCtx = 0xffffffffu;

  // --- what the engine sets (see the file comment) -------------------------
  const Interference<N>* rely = nullptr;
  Interference<N>* guarantee = nullptr;
  /// Set when a write grows `guarantee`; the engine resets it.
  bool guarantee_grew = false;
  const std::vector<std::uint32_t>* cstring = nullptr;
  bool recording = true;
  bool entry_called = false;

  AbsEval(const sem::LoweredProgram& prog, std::size_t call_string_k);

  /// Globals after their function slots and initializers (left to right).
  [[nodiscard]] Store initial_store();

  /// Starts the action of `instr`: clears the access sets and sets the
  /// statement context. Lock/unlock cell traffic is synchronization, not
  /// data flow, so it records no faults or uninitialized reads.
  void begin(const sem::Instr& instr) {
    reads_.clear();
    writes_.clear();
    stmt_ = instr.stmt != nullptr ? instr.stmt->id() : kNoCtx;
    sync_ = instr.op == sem::Op::Lock || instr.op == sem::Op::Unlock;
  }

  /// Runs the straight-line instruction `instr` (Assign, Alloc, Lock,
  /// Unlock, Assert or Branch) at (proc, pc) from `store`, handing every
  /// successor to `emit(target_pc, store)`; the engine settles the target
  /// and places it in its own control state.
  template <typename Emit>
  void step(std::uint32_t proc, std::uint32_t pc, const sem::Instr& instr, const Store& store,
            Emit&& emit);

  [[nodiscard]] Value eval(const Store& store, std::uint32_t proc, const lang::Expr& e);
  [[nodiscard]] std::set<AbsLoc> lvalue_locs(const Store& store, std::uint32_t proc,
                                             const lang::Expr& lv);
  /// Writes `v` to `locs`: strong when the target is one non-summary cell,
  /// weak otherwise; joined into the guarantee when there is one.
  /// `attribute` controls whether the write lands in the current action's
  /// access sets (return-value writes belong to the call site, not the
  /// returning function).
  void update(Store& store, const std::set<AbsLoc>& locs, const Value& v,
              bool attribute = true);
  [[nodiscard]] std::uint32_t settle_pc(std::uint32_t proc, std::uint32_t pc) const {
    const auto& code = prog_.proc(proc).code;
    while (pc < code.size() && code[pc].op == sem::Op::Jump) pc = code[pc].t1;
    return pc;
  }

  /// Context hash of a call string (0 for empty / context-insensitive).
  [[nodiscard]] std::uint32_t cstring_ctx(const std::vector<std::uint32_t>& cs) const {
    if (call_string_k_ == 0 || cs.empty()) return 0;
    const std::uint64_t h = hash_range(cs.begin(), cs.end(), 0x1234567);
    return static_cast<std::uint32_t>(h) | 1u;  // never 0
  }
  /// True if (fn, slot) must stay context-merged (accessed via hops).
  [[nodiscard]] bool slot_merged(std::uint32_t fn, std::uint32_t slot) const {
    return merged_fns_.contains(fn) || merged_slots_.contains({fn, slot});
  }

  [[nodiscard]] const std::set<AbsLoc>& reads() const { return reads_; }
  /// Mutable: engines attribute call-argument and return-value writes.
  [[nodiscard]] std::set<AbsLoc>& writes() { return writes_; }
  [[nodiscard]] std::uint32_t stmt() const { return stmt_; }
  [[nodiscard]] bool sync() const { return sync_; }

  /// Moves the recorded may-facts into an engine's result (AbsResult and
  /// TmodResult name them alike).
  template <typename Result>
  void move_facts_into(Result& r) {
    r.may_fail_asserts = std::move(facts_.may_fail_asserts);
    r.may_faults = std::move(facts_.may_faults);
    r.site_sizes = std::move(facts_.site_sizes);
    r.uninit_reads = std::move(facts_.uninit_reads);
  }

 private:
  [[nodiscard]] AbsLoc var_absloc(std::uint32_t proc, const lang::Expr& ref) const;
  /// Own cell (a bottom cell reads as the implicit zero) joined with the
  /// rely: interference is never hidden by a strong own-store update.
  [[nodiscard]] Value read_loc(const Store& store, const AbsLoc& loc);
  /// Pointer arithmetic on frame pointers may reach any slot of the frame.
  [[nodiscard]] absdom::PowerSet<AbsLoc> spread_frames(const absdom::PowerSet<AbsLoc>& locs) const;
  /// Records an OutOfBounds may-fault when `index` may fall outside an
  /// indexed heap object's allocated size (joined per alloc site).
  void check_bounds(const Value& base, const Value& index, const lang::Index& ix);
  /// Branch-condition refinement: narrows `store` along the `want_true`
  /// edge of `cond` when the condition compares a refinable variable
  /// against a numeric expression. Returns false if the edge is infeasible
  /// (the refined value is bottom).
  [[nodiscard]] bool refine_branch(Store& store, std::uint32_t proc, const lang::Expr& cond,
                                   bool want_true);

  [[nodiscard]] bool recording_here() const { return recording && !sync_ && stmt_ != kNoCtx; }
  /// Records a may-fault at `expr` of the current action, if recording.
  void note_fault(sem::Fault f, std::uint32_t expr_id) {
    if (recording_here()) {
      facts_.may_faults.insert({stmt_, expr_id, static_cast<std::uint8_t>(f)});
    }
  }

  const sem::LoweredProgram& prog_;
  std::size_t call_string_k_;
  /// Frame slots accessed with hops > 0 anywhere (lambda captures, doall
  /// bodies reading enclosing locals): these keep context 0.
  std::set<std::pair<std::uint32_t, std::uint32_t>> merged_slots_;
  /// Functions with address-taken locals: their whole frame stays merged
  /// (pointers cannot know activation contexts).
  std::set<std::uint32_t> merged_fns_;
  /// May-facts recorded so far. Site sizes are joined whether or not
  /// `recording` is on: bounds checks compare against them.
  struct {
    std::set<std::uint32_t> may_fail_asserts;
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint8_t>> may_faults;
    std::map<std::uint32_t, N> site_sizes;
    std::set<std::tuple<std::uint32_t, std::uint32_t, AbsLoc>> uninit_reads;
  } facts_;

  // The action currently being evaluated.
  std::set<AbsLoc> reads_;
  std::set<AbsLoc> writes_;
  std::uint32_t stmt_ = kNoCtx;
  bool sync_ = false;
};

template <NumDomain N>
AbsEval<N>::AbsEval(const sem::LoweredProgram& prog, std::size_t call_string_k)
    : prog_(prog), call_string_k_(call_string_k) {
  // Without call strings every frame cell has context 0: nothing to merge.
  if (call_string_k_ == 0) return;
  // Slots reachable through static-link hops must keep one merged abstract
  // cell: a hop access cannot know its target activation's call string.
  std::vector<const lang::Expr*> work;
  auto push = [&](const lang::Expr* e) {
    if (e != nullptr) work.push_back(e);
  };
  for (const sem::Proc& p : prog_.procs()) {
    for (const sem::Instr& instr : p.code) {
      push(instr.lhs);
      push(instr.rhs);
      push(instr.rhs2);
      if (instr.args != nullptr) {
        for (const auto& a : *instr.args) push(a.get());
      }
      while (!work.empty()) {
        const lang::Expr* e = work.back();
        work.pop_back();
        switch (e->kind()) {
          case lang::ExprKind::VarRef: {
            const sem::VarLoc& vl = prog_.varloc(e->id());
            if (!vl.is_global && vl.hops > 0) {
              std::uint32_t fn = p.owner_fn;
              for (std::uint16_t h = 0; h < vl.hops; ++h) {
                fn = prog_.proc(fn).lexical_parent;
                require(fn != sem::kNoProc, "hop chain fell off the top");
              }
              merged_slots_.insert({fn, vl.slot});
            }
            break;
          }
          case lang::ExprKind::Unary:
            push(&lang::expr_cast<lang::Unary>(*e).operand());
            break;
          case lang::ExprKind::Binary:
            push(&lang::expr_cast<lang::Binary>(*e).lhs());
            push(&lang::expr_cast<lang::Binary>(*e).rhs());
            break;
          case lang::ExprKind::AddrOf: {
            // Taking a local's address exposes the frame to pointer access
            // (including arithmetic): merge the whole frame's contexts.
            const lang::Expr& lv = lang::expr_cast<lang::AddrOf>(*e).lvalue();
            if (lv.kind() == lang::ExprKind::VarRef) {
              const sem::VarLoc& vl = prog_.varloc(lv.id());
              if (!vl.is_global) {
                std::uint32_t fn = p.owner_fn;
                for (std::uint16_t h = 0; h < vl.hops; ++h) {
                  fn = prog_.proc(fn).lexical_parent;
                }
                merged_fns_.insert(fn);
              }
            } else {
              push(&lv);
            }
            break;
          }
          case lang::ExprKind::Deref:
            push(&lang::expr_cast<lang::Deref>(*e).pointer());
            break;
          case lang::ExprKind::Index:
            push(&lang::expr_cast<lang::Index>(*e).base());
            push(&lang::expr_cast<lang::Index>(*e).index());
            break;
          default:
            break;
        }
      }
    }
  }
}

template <NumDomain N>
AbsStore<N> AbsEval<N>::initial_store() {
  Store store;
  for (const sem::GlobalSlot& g : prog_.globals()) {
    if (g.fun != nullptr) {
      store.set(AbsLoc::global(g.slot), Value::of_fn(g.fun->index()));
    }
  }
  stmt_ = kNoCtx;
  for (const sem::GlobalSlot& g : prog_.globals()) {
    if (g.init != nullptr) {
      store.set(AbsLoc::global(g.slot), eval(store, prog_.entry_proc(), *g.init));
    }
  }
  reads_.clear();
  return store;
}

template <NumDomain N>
AbsLoc AbsEval<N>::var_absloc(std::uint32_t proc, const lang::Expr& ref) const {
  const sem::VarLoc& vl = prog_.varloc(ref.id());
  if (vl.is_global) return AbsLoc::global(vl.slot);
  std::uint32_t fn = prog_.proc(proc).owner_fn;
  for (std::uint16_t h = 0; h < vl.hops; ++h) {
    fn = prog_.proc(fn).lexical_parent;
    require(fn != sem::kNoProc, "abstract hop chain fell off the top");
  }
  std::uint32_t ctx = 0;
  if (vl.hops == 0 && cstring != nullptr && !slot_merged(fn, vl.slot)) {
    ctx = cstring_ctx(*cstring);
  }
  return AbsLoc::frame(fn, vl.slot, ctx);
}

template <NumDomain N>
AbsValue<N> AbsEval<N>::read_loc(const Store& store, const AbsLoc& loc) {
  reads_.insert(loc);
  Value v = store.get(loc);
  if (v.is_bottom()) v = Value::of_int(0);  // zero-initialized cell
  if (rely != nullptr) return v.join(rely->get(loc));
  return v;
}

template <NumDomain N>
absdom::PowerSet<AbsLoc> AbsEval<N>::spread_frames(const absdom::PowerSet<AbsLoc>& locs) const {
  absdom::PowerSet<AbsLoc> out;
  for (const AbsLoc& loc : locs.elems()) {
    if (loc.kind == AbsLoc::Kind::Frame) {
      // Frame pointers only arise from address-taken locals, whose frames
      // are context-merged (see the constructor), so ctx 0 is the cell.
      const sem::Proc& fn = prog_.proc(loc.a);
      for (std::uint32_t slot = 1; slot < std::max(fn.nslots, 1u); ++slot) {
        out.insert(AbsLoc::frame(loc.a, slot, 0));
      }
    } else {
      out.insert(loc);
    }
  }
  return out;
}

template <NumDomain N>
AbsValue<N> AbsEval<N>::eval(const Store& store, std::uint32_t proc, const lang::Expr& e) {
  using lang::ExprKind;
  switch (e.kind()) {
    case ExprKind::IntLit:
      return Value::of_int(lang::expr_cast<lang::IntLit>(e).value());
    case ExprKind::BoolLit:
      return Value::of_int(lang::expr_cast<lang::BoolLit>(e).value() ? 1 : 0);
    case ExprKind::NullLit:
      return Value::of_null();
    case ExprKind::VarRef: {
      const AbsLoc loc = var_absloc(proc, e);
      if (recording_here() && store.get(loc).is_bottom()) {
        // Bottom = never written on any path to here: the read observes the
        // implicit zero-initialization.
        facts_.uninit_reads.insert({stmt_, e.id(), loc});
      }
      return read_loc(store, loc);
    }
    case ExprKind::Unary: {
      const auto& u = lang::expr_cast<lang::Unary>(e);
      const Value v = eval(store, proc, u.operand());
      Value out;
      if (u.op() == lang::UnOp::Neg) {
        out.num = N::sub(N::constant(0), v.num);
      } else {  // not
        if (v.may_be_truthy()) out.num = out.num.join(N::constant(0));
        if (v.may_be_falsy()) out.num = out.num.join(N::constant(1));
      }
      return out;
    }
    case ExprKind::Binary: {
      const auto& b = lang::expr_cast<lang::Binary>(e);
      const Value l = eval(store, proc, b.lhs());
      const Value r = eval(store, proc, b.rhs());
      Value out;
      using lang::BinOp;
      auto bool_out = [&](bool can_true, bool can_false) {
        if (can_true) out.num = out.num.join(N::constant(1));
        if (can_false) out.num = out.num.join(N::constant(0));
      };
      switch (b.op()) {
        case BinOp::Add:
        case BinOp::Sub: {
          out.num = b.op() == BinOp::Add ? N::add(l.num, r.num) : N::sub(l.num, r.num);
          // Pointer arithmetic moves within the pointed-to object; folded
          // heap cells are unaffected, frame pointers may reach any slot.
          if (!l.ptrs.is_bottom()) out.ptrs = out.ptrs.join(spread_frames(l.ptrs));
          return out;
        }
        case BinOp::Mul:
          out.num = N::mul(l.num, r.num);
          return out;
        case BinOp::Div:
          if (r.may_be_falsy()) note_fault(sem::Fault::DivByZero, b.rhs().id());
          out.num = N::div(l.num, r.num);
          return out;
        case BinOp::Mod:
          if (r.may_be_falsy()) note_fault(sem::Fault::DivByZero, b.rhs().id());
          out.num = N::mod(l.num, r.num);
          return out;
        case BinOp::Eq:
        case BinOp::Ne: {
          const bool ptrish =
              !l.ptrs.is_bottom() || !r.ptrs.is_bottom() || l.may_null || r.may_null ||
              !l.fns.is_bottom() || !r.fns.is_bottom();
          if (ptrish) {
            bool_out(true, true);  // aliasing undecided at this precision
            return out;
          }
          out.num = N::cmp(l.num, r.num,
                           b.op() == BinOp::Eq
                               ? +[](std::int64_t x, std::int64_t y) { return x == y; }
                               : +[](std::int64_t x, std::int64_t y) { return x != y; });
          return out;
        }
        case BinOp::Lt:
          out.num = N::cmp(l.num, r.num, +[](std::int64_t x, std::int64_t y) { return x < y; });
          return out;
        case BinOp::Le:
          out.num = N::cmp(l.num, r.num, +[](std::int64_t x, std::int64_t y) { return x <= y; });
          return out;
        case BinOp::Gt:
          out.num = N::cmp(l.num, r.num, +[](std::int64_t x, std::int64_t y) { return x > y; });
          return out;
        case BinOp::Ge:
          out.num = N::cmp(l.num, r.num, +[](std::int64_t x, std::int64_t y) { return x >= y; });
          return out;
        case BinOp::And:
          bool_out(l.may_be_truthy() && r.may_be_truthy(),
                   l.may_be_falsy() || r.may_be_falsy());
          return out;
        case BinOp::Or:
          bool_out(l.may_be_truthy() || r.may_be_truthy(),
                   l.may_be_falsy() && r.may_be_falsy());
          return out;
      }
      throw Error("abstract eval: bad binop");
    }
    case ExprKind::AddrOf: {
      const auto& a = lang::expr_cast<lang::AddrOf>(e);
      Value out;
      for (const AbsLoc& loc : lvalue_locs(store, proc, a.lvalue())) out.ptrs.insert(loc);
      return out;
    }
    case ExprKind::Deref:
    case ExprKind::Index: {
      Value out;
      for (const AbsLoc& loc : lvalue_locs(store, proc, e)) {
        out = out.join(read_loc(store, loc));
      }
      return out;
    }
    case ExprKind::FunLit:
      return Value::of_fn(lang::expr_cast<lang::FunLit>(e).decl().index());
  }
  throw Error("abstract eval: bad expr kind");
}

template <NumDomain N>
std::set<AbsLoc> AbsEval<N>::lvalue_locs(const Store& store, std::uint32_t proc,
                                         const lang::Expr& lv) {
  using lang::ExprKind;
  switch (lv.kind()) {
    case ExprKind::VarRef:
      return {var_absloc(proc, lv)};
    case ExprKind::Deref: {
      const auto& d = lang::expr_cast<lang::Deref>(lv);
      const Value p = eval(store, proc, d.pointer());
      if (p.may_null) note_fault(sem::Fault::DerefNull, d.pointer().id());
      return {p.ptrs.elems().begin(), p.ptrs.elems().end()};
    }
    case ExprKind::Index: {
      const auto& ix = lang::expr_cast<lang::Index>(lv);
      const Value base = eval(store, proc, ix.base());
      const Value index = eval(store, proc, ix.index());
      if (base.may_null) note_fault(sem::Fault::DerefNull, ix.base().id());
      check_bounds(base, index, ix);
      const auto spread = spread_frames(base.ptrs);
      return {spread.elems().begin(), spread.elems().end()};
    }
    default:
      throw Error("abstract lvalue_locs: not an lvalue");
  }
}

template <NumDomain N>
void AbsEval<N>::check_bounds(const Value& base, const Value& index, const lang::Index& ix) {
  if (!recording_here()) return;
  for (const AbsLoc& loc : base.ptrs.elems()) {
    if (loc.kind != AbsLoc::Kind::Heap) continue;
    const auto it = facts_.site_sizes.find(loc.a);
    if (it == facts_.site_sizes.end()) continue;
    const bool below =
        N::cmp(index.num, N::constant(0),
               +[](std::int64_t x, std::int64_t y) { return x < y; })
            .may_be_truthy();
    const bool above =
        N::cmp(index.num, it->second,
               +[](std::int64_t x, std::int64_t y) { return x >= y; })
            .may_be_truthy();
    if (below || above) {
      note_fault(sem::Fault::OutOfBounds, ix.index().id());
      return;
    }
  }
}

template <NumDomain N>
void AbsEval<N>::update(Store& store, const std::set<AbsLoc>& locs, const Value& v,
                        bool attribute) {
  for (const AbsLoc& loc : locs) {
    if (attribute) writes_.insert(loc);
    if (guarantee != nullptr && guarantee->join_at(loc, v)) guarantee_grew = true;
  }
  if (locs.size() == 1 && !locs.begin()->is_summary()) {
    store.set(*locs.begin(), v);  // strong update: unique concrete cell
    return;
  }
  for (const AbsLoc& loc : locs) store.join_at(loc, v);
}

template <NumDomain N>
bool AbsEval<N>::refine_branch(Store& store, std::uint32_t proc, const lang::Expr& cond,
                               bool want_true) {
  using lang::BinOp;
  using lang::ExprKind;
  if (cond.kind() != ExprKind::Binary) return true;
  const auto& b = lang::expr_cast<lang::Binary>(cond);
  absdom::CmpOp op;
  switch (b.op()) {
    case BinOp::Lt: op = absdom::CmpOp::Lt; break;
    case BinOp::Le: op = absdom::CmpOp::Le; break;
    case BinOp::Gt: op = absdom::CmpOp::Gt; break;
    case BinOp::Ge: op = absdom::CmpOp::Ge; break;
    case BinOp::Eq: op = absdom::CmpOp::Eq; break;
    case BinOp::Ne: op = absdom::CmpOp::Ne; break;
    default: return true;
  }

  // A refinable location is a unique concrete cell: a global, or a frame
  // slot of the entry proc while nothing ever calls it (re-entrance would
  // make it a summary — checked dynamically; the engine re-evaluates once
  // a call to main is discovered, after which refinement stops applying).
  // Refining a cell other threads may write stays sound: the refined value
  // lands in the own store only, and every later read re-joins the rely.
  auto refinable = [&](const AbsLoc& loc) {
    if (loc.kind == AbsLoc::Kind::Global) return true;
    return loc.kind == AbsLoc::Kind::Frame && loc.a == prog_.entry_proc() && !entry_called;
  };

  auto try_side = [&](const lang::Expr& var_side, const lang::Expr& other_side,
                      absdom::CmpOp side_op) {
    if (var_side.kind() != ExprKind::VarRef) return true;
    const AbsLoc loc = var_absloc(proc, var_side);
    if (!refinable(loc)) return true;
    const Value v = read_loc(store, loc);
    // Numeric-only values refine; pointers/closures do not compare this way.
    if (v.may_null || !v.ptrs.is_bottom() || !v.fns.is_bottom()) return true;
    const Value rhs = eval(store, proc, other_side);
    const N refined = N::refine_cmp(v.num, side_op, rhs.num, want_true);
    if (refined == v.num) return true;
    if (refined.is_bottom()) return false;  // edge infeasible for this state
    Value nv = v;
    nv.num = refined;
    store.set(loc, nv);  // strong: unique cell
    return true;
  };

  if (!try_side(b.lhs(), b.rhs(), op)) return false;
  return try_side(b.rhs(), b.lhs(), absdom::mirror(op));
}

template <NumDomain N>
template <typename Emit>
void AbsEval<N>::step(std::uint32_t proc, std::uint32_t pc, const sem::Instr& instr,
                      const Store& store, Emit&& emit) {
  switch (instr.op) {
    case sem::Op::Assign: {
      Store s = store;
      const Value v = eval(s, proc, *instr.rhs);
      update(s, lvalue_locs(s, proc, *instr.lhs), v);
      emit(pc + 1, std::move(s));
      return;
    }
    case sem::Op::Alloc: {
      Store s = store;
      const Value size = eval(s, proc, *instr.rhs);
      require(instr.stmt != nullptr, "alloc without statement");
      if (N::cmp(size.num, N::constant(0),
                 +[](std::int64_t x, std::int64_t y) { return x < y; })
              .may_be_truthy()) {
        note_fault(sem::Fault::NegativeAlloc, instr.rhs->id());
      }
      auto [sit, fresh] = facts_.site_sizes.emplace(instr.stmt->id(), size.num);
      if (!fresh) sit->second = sit->second.join(size.num);
      const AbsLoc site = AbsLoc::heap(instr.stmt->id());
      s.join_at(site, Value::of_int(0));  // fresh cells are zero
      update(s, lvalue_locs(s, proc, *instr.lhs), Value::of_ptr(site));
      emit(pc + 1, std::move(s));
      return;
    }
    case sem::Op::Branch: {
      const Value c = eval(store, proc, *instr.rhs);
      if (c.may_be_truthy()) {
        Store st = store;
        if (refine_branch(st, proc, *instr.rhs, true)) emit(instr.t1, std::move(st));
      }
      if (c.may_be_falsy()) {
        Store sf = store;
        if (refine_branch(sf, proc, *instr.rhs, false)) emit(instr.t2, std::move(sf));
      }
      return;
    }
    case sem::Op::Lock: {
      Store s = store;
      const std::set<AbsLoc> locs = lvalue_locs(s, proc, *instr.lhs);
      bool may_acquire = false;
      for (const AbsLoc& loc : locs) {
        // read_loc joins the rely, so another thread's unlock (guarantee
        // value 0) keeps this acquirable even when the own store says held.
        if (read_loc(s, loc).may_be_falsy()) may_acquire = true;
      }
      if (may_acquire) {
        update(s, locs, Value::of_int(1));
        emit(pc + 1, std::move(s));
      }
      return;
    }
    case sem::Op::Unlock: {
      Store s = store;
      update(s, lvalue_locs(s, proc, *instr.lhs), Value::of_int(0));
      emit(pc + 1, std::move(s));
      return;
    }
    case sem::Op::Assert: {
      if (instr.rhs != nullptr) {
        const Value c = eval(store, proc, *instr.rhs);
        if (recording && c.may_be_falsy() && instr.stmt != nullptr) {
          facts_.may_fail_asserts.insert(instr.stmt->id());
        }
      }
      emit(pc + 1, Store(store));
      return;
    }
    case sem::Op::Jump:
      throw Error("abstract transfer: unsettled jump");
    default:
      throw Error("abstract step: not a straight-line instruction");
  }
}

}  // namespace copar::absem
