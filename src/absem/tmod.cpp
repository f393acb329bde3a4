// The rely/guarantee thread-modular engine (see tmod.h).
//
// Structure: a per-thread sequential abstract interpreter (a worklist over
// (proc, pc) points, with no interleaved control state) is run for every
// thread root against a rely map; writes feed the thread's guarantee;
// guarantees are joined into the relies with widening until nothing grows;
// one narrowing pass with the exact guarantee join then produces the
// reported facts.
//
// A widened round analyzes only the dirty roots: new ones, and those whose
// seed or widened rely grew since their last analysis (or whose analysis
// discovered a call to the entry proc, which changes branch refinement
// without requeueing). A clean root's last analysis ran its monotone
// worklist to the fixpoint under the same rely and seed, so re-running it
// would grow nothing: skipping it leaves every round, rely, guarantee and
// finding as it was, and saves only point evaluations. The relies are the
// joins of all guarantees but one, built from prefix and suffix joins in
// O(T) joins per round instead of O(T²).
//
// The abstract semantics is AbsExplorer's own evaluator (abseval.h), not a
// copy. Exactly four things differ, all set as data or kept here:
//   - reads join the rely: own-store ⊔ rely, so a strong own-store update
//     never hides another thread's interference;
//   - writes join into the guarantee;
//   - frames are context 0 (no call strings, one cell per slot);
//   - Join never waits: there is no child liveness to consult.
// Calls, returns and forks are this file's: context-insensitive return
// sites, and forks seed the child thread's entry store.
//
// Per-point stores are dense: a thread's slots for a proc (one per pc) are
// allocated when the thread first touches that proc, so memory follows the
// points each thread reaches. The worklist is a flag per slot plus a cursor
// below which nothing is queued; it pops in ascending (proc, pc) order, so
// every widening happens in the same order as with an ordered set.
// Successor stores move into fresh slots and widen in place into reached
// ones (MapLattice::widen_with).
//
// Determinism: thread roots, worklist order, and every recorded container
// are ordered by (proc, pc, stmt, loc) keys — reports are byte-reproducible
// across runs and platforms.
#include "src/absem/tmod.h"

#include <algorithm>
#include <utility>

#include "src/absem/abseval.h"
#include "src/support/diagnostics.h"
#include "src/support/telemetry.h"

namespace copar::absem {
namespace {

template <NumDomain N>
class ThreadModular {
 public:
  using Value = AbsValue<N>;
  using Store = AbsStore<N>;
  using Point = std::pair<std::uint32_t, std::uint32_t>;  // (proc, pc)

  ThreadModular(const sem::LoweredProgram& prog, const TmodOptions& opts)
      : prog_(prog), opts_(opts), ev_(prog, /*call_string_k=*/0) {
    ev_.recording = false;
  }

  TmodResult<N> run();

 private:
  /// A discovered call site: where a callee's return flows back to.
  struct Cont {
    std::uint32_t proc = 0;
    std::uint32_t pc = 0;
    std::set<AbsLoc> dst;  // return-value destination (empty: discarded)
    friend auto operator<=>(const Cont&, const Cont&) = default;
  };

  /// One point of a thread: the abstract store on entry and its worklist
  /// flag.
  struct Slot {
    Store store;
    bool reached = false;  // some store has arrived
    bool queued = false;
  };
  /// The slots of one proc, by pc.
  struct ProcSlots {
    std::uint32_t proc = 0;
    std::vector<Slot> at;
  };

  /// Per-thread analysis state, accumulated monotonically across rounds.
  struct ThreadState {
    /// Ascending by proc id; a proc's slots are added (sized to its code)
    /// when the thread first touches it. Slots never move once made.
    std::vector<ProcSlots> procs;
    std::map<std::uint32_t, std::set<Cont>> conts;  // callee -> return sites
    Interference<N> guarantee;      // this thread's abstract writes
  };

  [[nodiscard]] bool self_par(std::uint32_t root) const {
    return opts_.self_parallel ? opts_.self_parallel(root) : true;
  }

  /// The first of the current thread's procs whose id is not below `proc`.
  [[nodiscard]] typename std::vector<ProcSlots>::iterator lower_proc(std::uint32_t proc) {
    auto& procs = cur_ts_->procs;
    return std::lower_bound(procs.begin(), procs.end(), proc,
                            [](const ProcSlots& p, std::uint32_t id) { return p.proc < id; });
  }

  /// The current thread's slot of `pt`, its proc's slots made on first touch.
  Slot& slot(Point pt) {
    auto it = lower_proc(pt.first);
    if (it == cur_ts_->procs.end() || it->proc != pt.first) {
      it = cur_ts_->procs.insert(
          it, ProcSlots{pt.first, std::vector<Slot>(prog_.proc(pt.first).code.size())});
    }
    return it->at.at(pt.second);
  }

  void push(Point pt, Slot& s) {
    if (s.queued) return;
    s.queued = true;
    ++queued_;
    cursor_ = std::min(cursor_, pt);
  }

  /// Pops the least queued point of the current thread into `pt` and
  /// returns its slot; null when none is queued. Nothing is queued below
  /// cursor_.
  Slot* pop(Point& pt) {
    if (queued_ == 0) return nullptr;
    for (auto it = lower_proc(cursor_.first); it != cur_ts_->procs.end(); ++it) {
      for (std::uint32_t pc = it->proc == cursor_.first ? cursor_.second : 0;
           pc < it->at.size(); ++pc) {
        Slot& s = it->at[pc];
        if (!s.queued) continue;
        s.queued = false;
        --queued_;
        cursor_ = pt = {it->proc, pc};
        return &s;
      }
    }
    throw Error("tmod worklist: queued point not found");
  }

  /// Widens `store` into the entry store of `pt` (moved in when `pt` is
  /// first reached) and queues `pt` if it grew. A store for the point being
  /// transferred waits in self_ until its transfer ends, which still reads
  /// the slot's store.
  template <typename S>
  void propagate(Point pt, S&& store) {
    if (pt == cur_pt_) {
      self_.emplace_back(std::forward<S>(store));
      return;
    }
    Slot& s = slot(pt);
    if (!s.reached) {
      s.store = std::forward<S>(store);
      s.reached = true;
    } else if (!absdom::widen_into(s.store, store)) {
      return;
    }
    grew_ = true;
    push(pt, s);
  }

  /// Joins `store` into a forked proc's seed (widened across rounds); the
  /// report pass runs on the converged seeds and never grows them.
  void seed_child(std::uint32_t child, const Store& store) {
    if (ev_.recording) return;
    auto [it, fresh] = seeds_.try_emplace(child, store);
    if (fresh || absdom::widen_into(it->second, store)) {
      grew_ = true;
      dirty_.insert(child);
    }
  }

  void note_access(const AbsLoc& loc, bool is_write) {
    const auto key = std::make_tuple(cur_thread_, ev_.stmt(), loc, is_write, ev_.sync());
    auto [it, fresh] = access_masks_.emplace(key, cur_mask_);
    if (!fresh) it->second &= cur_mask_;
  }

  void analyze(std::uint32_t root, ThreadState& ts, const Interference<N>& rely,
               const Store& seed);
  void transfer(Point pt, const Store& store);
  [[nodiscard]] std::vector<Interference<N>> raw_relies(
      const std::map<std::uint32_t, ThreadState>& threads,
      const std::vector<std::uint32_t>& roots) const;
  [[nodiscard]] TmodRaceReport make_races() const;

  const sem::LoweredProgram& prog_;
  TmodOptions opts_;
  TmodResult<N> result_;
  /// The abstract semantics (src/absem/abseval.h), context-insensitive:
  /// reads join the current thread's rely and writes its guarantee. It
  /// records only in the report pass (the widened rounds only grow
  /// guarantees and seeds).
  AbsEval<N> ev_;

  /// Thread roots and their (widened) entry stores.
  std::map<std::uint32_t, Store> seeds_;
  /// Roots the next widened analysis must not skip (see the file comment).
  std::set<std::uint32_t> dirty_;
  /// (thread, stmt, loc, is_write, sync) -> must-lock mask (intersected).
  std::map<std::tuple<std::uint32_t, std::uint32_t, AbsLoc, bool, bool>, std::uint64_t>
      access_masks_;

  // --- state of the analysis currently in flight ---------------------------
  static constexpr Point kNoPoint{0xffffffffu, 0xffffffffu};
  ThreadState* cur_ts_ = nullptr;
  std::uint32_t cur_thread_ = 0;
  /// Queued slots of cur_ts_, and a point no queued one is below.
  std::uint64_t queued_ = 0;
  Point cursor_{0, 0};
  /// The point being transferred, and the stores it propagates to itself.
  Point cur_pt_ = kNoPoint;
  std::vector<Store> self_;
  std::uint64_t cur_mask_ = 0;
  /// Anything but a guarantee grew (states, seeds, relies); the evaluator
  /// flags guarantee growth. Together: the convergence test.
  bool grew_ = false;
  std::uint64_t evals_ = 0;
};

template <NumDomain N>
void ThreadModular<N>::analyze(std::uint32_t root, ThreadState& ts,
                               const Interference<N>& rely, const Store& seed) {
  cur_ts_ = &ts;
  cur_thread_ = root;
  ev_.rely = &rely;
  ev_.guarantee = &ts.guarantee;
  queued_ = 0;
  cursor_ = {0, 0};
  const bool entry_called = ts.conts.contains(prog_.entry_proc());
  // Re-evaluate every known point: a grown rely can change any transfer
  // that reads shared state. Monotone, so this terminates.
  for (ProcSlots& ps : ts.procs) {
    for (std::uint32_t pc = 0; pc < ps.at.size(); ++pc) {
      if (ps.at[pc].reached) push({ps.proc, pc}, ps.at[pc]);
    }
  }
  propagate({root, ev_.settle_pc(root, 0)}, seed);
  Point pt;
  while (const Slot* s = pop(pt)) {
    if (!s->reached) continue;
    cur_pt_ = pt;
    transfer(pt, s->store);
    cur_pt_ = kNoPoint;
    for (Store& own : self_) propagate(pt, std::move(own));
    self_.clear();
    ++evals_;
  }
  // Points evaluated before the first call to the entry proc refined its
  // frame, and nothing requeued them: the next round must re-evaluate.
  if (!entry_called && ts.conts.contains(prog_.entry_proc())) dirty_.insert(root);
}

template <NumDomain N>
void ThreadModular<N>::transfer(Point pt, const Store& store) {
  const auto [proc_id, pc] = pt;
  const sem::Proc& proc = prog_.proc(proc_id);
  const sem::Instr& instr = proc.code.at(pc);

  ev_.begin(instr);
  ev_.entry_called = cur_ts_->conts.contains(prog_.entry_proc());
  cur_mask_ = opts_.must_locks ? opts_.must_locks(proc_id, pc) : 0;
  const bool record = ev_.recording && ev_.stmt() != AbsEval<N>::kNoCtx;
  if (record) result_.reached_stmts.insert(ev_.stmt());

  auto advance = [&](std::uint32_t new_pc, auto&& s) {
    propagate({proc_id, ev_.settle_pc(proc_id, new_pc)}, std::forward<decltype(s)>(s));
  };

  switch (instr.op) {
    case sem::Op::Call: {
      Store s = store;
      const Value callee = ev_.eval(s, proc_id, *instr.rhs);
      std::vector<Value> args;
      if (instr.args != nullptr) {
        for (const auto& a : *instr.args) args.push_back(ev_.eval(s, proc_id, *a));
      }
      std::set<AbsLoc> dst;
      if (instr.lhs != nullptr) {
        dst = ev_.lvalue_locs(s, proc_id, *instr.lhs);
        // The eventual return-value write belongs to this call site.
        for (const AbsLoc& loc : dst) ev_.writes().insert(loc);
      }
      for (std::uint32_t f : callee.fns.elems()) {
        const sem::Proc& target = prog_.proc(f);
        if (target.fun == nullptr) continue;  // thread procs are not callable
        if (target.fun->params().size() != args.size()) continue;  // faults concretely
        const Cont cont{proc_id, ev_.settle_pc(proc_id, pc + 1), dst};
        if (cur_ts_->conts[f].insert(cont).second) {
          grew_ = true;
          // A new call edge gives the callee's returns a new successor:
          // requeue them (transfer skips points with no state yet).
          for (std::uint32_t p2 = 0; p2 < target.code.size(); ++p2) {
            const sem::Op op2 = target.code[p2].op;
            if (op2 == sem::Op::Return || op2 == sem::Op::Halt) push({f, p2}, slot({f, p2}));
          }
        }
        Store s2 = s;
        for (std::size_t i = 0; i < args.size(); ++i) {
          const AbsLoc ploc = AbsLoc::frame(f, static_cast<std::uint32_t>(1 + i), 0);
          if (cur_ts_->guarantee.join_at(ploc, args[i])) grew_ = true;
          s2.join_at(ploc, args[i]);
          ev_.writes().insert(ploc);
        }
        propagate({f, ev_.settle_pc(f, 0)}, std::move(s2));
      }
      break;
    }
    case sem::Op::Return:
    case sem::Op::Halt: {
      if (proc.is_thread) break;  // thread exit: the point disappears
      Store s = store;
      Value v = Value::of_null();
      if (instr.op == sem::Op::Return && instr.rhs != nullptr) {
        v = ev_.eval(s, proc_id, *instr.rhs);
      }
      if (proc_id == prog_.entry_proc()) break;  // main finished
      const auto it = cur_ts_->conts.find(proc_id);
      if (it == cur_ts_->conts.end()) break;  // callers not discovered yet
      for (const Cont& cont : it->second) {
        Store s2 = s;
        // The write was attributed at the call site; see Op::Call.
        if (!cont.dst.empty()) ev_.update(s2, cont.dst, v, /*attribute=*/false);
        propagate({cont.proc, cont.pc}, std::move(s2));
      }
      break;
    }
    case sem::Op::Fork: {
      require(instr.stmt != nullptr, "fork without statement");
      for (std::uint32_t child : instr.forks) seed_child(child, store);
      advance(pc + 1, store);  // parent proceeds to the Join
      break;
    }
    case sem::Op::ForkRange: {
      require(instr.stmt != nullptr, "doall without statement");
      Store s = store;
      const Value lo = ev_.eval(s, proc_id, *instr.rhs);
      const Value hi = ev_.eval(s, proc_id, *instr.rhs2);
      const std::uint32_t child = instr.forks.at(0);
      const N nonempty = N::cmp(hi.num, lo.num,
                                +[](std::int64_t x, std::int64_t y) { return x >= y; });
      if (nonempty.may_be_truthy() || lo.num.is_bottom() || hi.num.is_bottom()) {
        // The index of every instance lies in [lo, hi]: join of the bounds.
        const AbsLoc iloc = AbsLoc::frame(child, 1, 0);
        const Value iv = Value::of_num(lo.num.join(hi.num));
        if (cur_ts_->guarantee.join_at(iloc, iv)) grew_ = true;
        ev_.writes().insert(iloc);
        Store seed = s;
        seed.join_at(iloc, iv);
        seed_child(child, seed);
      }
      advance(pc + 1, std::move(s));  // parent proceeds (range may be empty)
      break;
    }
    case sem::Op::Join:
      // Always enabled: thread-modular analysis has no child liveness to
      // consult. Over-approximates reachability, which is the sound side.
      advance(pc + 1, store);
      break;
    default:  // straight-line: the shared abstract semantics
      ev_.step(proc_id, pc, instr, store, advance);
  }

  if (record) {
    for (const AbsLoc& loc : ev_.reads()) note_access(loc, /*is_write=*/false);
    for (const AbsLoc& loc : ev_.writes()) note_access(loc, /*is_write=*/true);
  }
}

/// Per root r of `roots` (ascending): the join of the guarantee of every
/// analyzed thread but r, plus r's own when two instances of r may run at
/// once. Built from one suffix pass and one running prefix, so T roots cost
/// O(T) joins; a root not analyzed yet gets the join of them all.
template <NumDomain N>
std::vector<Interference<N>> ThreadModular<N>::raw_relies(
    const std::map<std::uint32_t, ThreadState>& threads,
    const std::vector<std::uint32_t>& roots) const {
  std::vector<std::pair<std::uint32_t, const Interference<N>*>> gs;
  gs.reserve(threads.size());
  for (const auto& [r, ts] : threads) gs.emplace_back(r, &ts.guarantee);
  // suffix[i]: the join of gs[i..].
  std::vector<Interference<N>> suffix(gs.size() + 1);
  for (std::size_t i = gs.size(); i-- > 0;) suffix[i] = suffix[i + 1].join(*gs[i].second);
  std::vector<Interference<N>> out;
  out.reserve(roots.size());
  Interference<N> prefix;  // the join of gs[..i)
  std::size_t i = 0;
  for (const std::uint32_t r : roots) {
    for (; i < gs.size() && gs[i].first < r; ++i) (void)prefix.join_with(*gs[i].second);
    const bool own = i < gs.size() && gs[i].first == r;
    Interference<N> raw = prefix.join(suffix[own ? i + 1 : i]);
    if (own && self_par(r)) (void)raw.join_with(*gs[i].second);
    out.push_back(std::move(raw));
  }
  return out;
}

template <NumDomain N>
TmodRaceReport ThreadModular<N>::make_races() const {
  struct PairAgg {
    bool ww = false;
    bool wr = false;
    bool all_protected = true;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, PairAgg> agg;
  std::map<AbsLoc, std::vector<const AccessRecord*>> by_loc;
  for (const AccessRecord& a : result_.accesses) by_loc[a.loc].push_back(&a);
  for (const auto& [loc, recs] : by_loc) {
    for (std::size_t i = 0; i < recs.size(); ++i) {
      // j == i pairs a statement with a second instance of itself; the MHP
      // hook decides whether two instances can actually coexist.
      for (std::size_t j = i; j < recs.size(); ++j) {
        const AccessRecord& a = *recs[i];
        const AccessRecord& b = *recs[j];
        if (!a.is_write && !b.is_write) continue;
        if (a.sync && b.sync) continue;  // lock-cell contention is not a race
        PairAgg& p = agg[{std::min(a.stmt, b.stmt), std::max(a.stmt, b.stmt)}];
        if (a.is_write && b.is_write) {
          p.ww = true;
        } else {
          p.wr = true;
        }
        // Mutually excluded only when some lock is must-held on both sides;
        // one unprotected occurrence makes the whole pair unprotected.
        p.all_protected = p.all_protected && ((a.locks & b.locks) != 0);
      }
    }
  }
  TmodRaceReport out;
  for (const auto& [key, p] : agg) {
    ++out.pairs_total;
    if (opts_.parallel && !opts_.parallel(key.first, key.second)) {
      ++out.pruned_mhp;
      continue;
    }
    if (p.all_protected) {
      ++out.pruned_lockset;
      continue;
    }
    out.races.push_back(TmodRace{key.first, key.second, p.ww, p.wr});
  }
  return out;
}

template <NumDomain N>
TmodResult<N> ThreadModular<N>::run() {
  telemetry::Telemetry& tel = telemetry::Telemetry::global();
  telemetry::ScopedPhase phase_folding(telemetry::Phase::Folding);

  // Initializers run before any fork: no rely, nothing recorded.
  seeds_.emplace(prog_.entry_proc(), ev_.initial_store());
  dirty_.insert(prog_.entry_proc());

  // --- widened interference rounds ----------------------------------------
  std::map<std::uint32_t, ThreadState> threads;
  std::map<std::uint32_t, Interference<N>> rely_w;
  auto seeded_roots = [this] {
    std::vector<std::uint32_t> roots;
    roots.reserve(seeds_.size());
    for (const auto& [r, s] : seeds_) roots.push_back(r);
    return roots;
  };
  bool converged = false;
  std::uint32_t round = 0;
  while (round < opts_.max_rounds) {
    ++round;
    grew_ = false;
    ev_.guarantee_grew = false;
    const std::vector<std::uint32_t> roots = seeded_roots();
    for (const std::uint32_t r : roots) {
      if (dirty_.erase(r) != 0) analyze(r, threads[r], rely_w[r], seeds_.at(r));
    }
    const std::vector<Interference<N>> raws = raw_relies(threads, roots);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      if (absdom::widen_into(rely_w[roots[i]], raws[i])) {
        grew_ = true;
        dirty_.insert(roots[i]);
      }
    }
    if (!grew_ && !ev_.guarantee_grew) {
      converged = true;
      break;
    }
  }
  result_.rounds = round;
  result_.truncated = !converged;

  // --- narrowing: exact relies (plain join of the final guarantees) -------
  const std::vector<std::uint32_t> all_roots = seeded_roots();
  const std::vector<Interference<N>> raws = raw_relies(threads, all_roots);
  std::map<std::uint32_t, Interference<N>> rely_final;
  for (std::size_t i = 0; i < all_roots.size(); ++i) {
    const std::uint32_t r = all_roots[i];
    const Interference<N>& raw = raws[i];
    // Sound: the final guarantees are a rely/guarantee post-fixpoint, and
    // re-analysis under any rely ⊒ their join can only shrink guarantees.
    // Without convergence the widened relies stay as-is (no narrowing).
    Interference<N> base = rely_w[r].join(raw);
    if (converged) {
      Interference<N> narrowed;
      for (const auto& [loc, v] : base.entries()) narrowed.set(loc, v.narrow(raw.get(loc)));
      base = std::move(narrowed);
    }
    rely_final.emplace(r, std::move(base));
  }

  // --- report pass: fresh analysis under the narrowed relies --------------
  ev_.recording = true;
  std::map<std::uint32_t, ThreadState> report;
  for (const auto& [r, seed] : seeds_) {
    analyze(r, report[r], rely_final.at(r), seed);
  }
  result_.threads = static_cast<std::uint32_t>(report.size());
  for (const auto& [r, rel] : rely_final) {
    result_.interference_facts += rel.entries().size();
  }
  result_.relies = std::move(rely_final);
  for (auto& [r, ts] : report) result_.guarantees.emplace(r, std::move(ts.guarantee));
  for (const auto& [key, mask] : access_masks_) {
    const auto& [thread, stmt, loc, is_write, sync] = key;
    result_.accesses.push_back(AccessRecord{thread, stmt, loc, is_write, sync, mask});
  }
  result_.races = make_races();
  ev_.move_facts_into(result_);

  const std::uint64_t alarms = result_.races.races.size() + result_.may_fail_asserts.size() +
                               result_.may_faults.size() + result_.uninit_reads.size();
  result_.stats.set("tmod.threads", result_.threads);
  result_.stats.set("tmod.rounds", result_.rounds);
  result_.stats.set("tmod.interference_facts", result_.interference_facts);
  result_.stats.set("tmod.alarms", alarms);
  result_.stats.set("tmod.point_evaluations", evals_);
  tel.publish_stats(result_.stats);
  return std::move(result_);
}

}  // namespace

template <NumDomain N>
TmodResult<N> tmod_analyze(const sem::LoweredProgram& prog, const TmodOptions& opts) {
  ThreadModular<N> engine(prog, opts);
  return engine.run();
}

template TmodResult<absdom::Interval> tmod_analyze<absdom::Interval>(
    const sem::LoweredProgram&, const TmodOptions&);
template TmodResult<absdom::FlatInt> tmod_analyze<absdom::FlatInt>(
    const sem::LoweredProgram&, const TmodOptions&);

}  // namespace copar::absem
