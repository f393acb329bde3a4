// Implementation of AbsExplorer (template bodies). Included at the end of
// absexplore.h; do not include directly.
#pragma once

#include <algorithm>

#include "src/lang/ast.h"
#include "src/sem/step.h"
#include "src/support/diagnostics.h"
#include "src/support/hash.h"
#include "src/support/telemetry.h"

namespace copar::absem {

template <NumDomain N>
AbsExplorer<N>::AbsExplorer(const sem::LoweredProgram& program, AbsOptions options)
    : prog_(program), opts_(options), ev_(program, options.call_string_k) {}

// --------------------------------------------------------------------------
// control-state plumbing
// --------------------------------------------------------------------------

template <NumDomain N>
void AbsExplorer<N>::insert_point(AbsControl& ctrl, AbsPoint p) {
  for (AbsPoint& q : ctrl) {
    if (q.ident() == p.ident()) {
      q.omega = true;  // two abstract instances fold into ω
      return;
    }
  }
  ctrl.push_back(std::move(p));
  std::sort(ctrl.begin(), ctrl.end());
}

template <NumDomain N>
AbsControl AbsExplorer<N>::with_point_removed(const AbsControl& ctrl, std::size_t idx) const {
  AbsControl out = ctrl;
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(idx));
  return out;
}

// --------------------------------------------------------------------------
// engine
// --------------------------------------------------------------------------

template <NumDomain N>
void AbsExplorer<N>::enqueue(AbsControl ctrl, Store store) {
  auto it = states_.find(ctrl);
  if (it == states_.end()) {
    if (states_.size() >= opts_.max_states) {
      result_.truncated = true;
      return;
    }
    states_.emplace(ctrl, std::move(store));
  } else {
    if (!absdom::widen_into(it->second, store)) return;  // no growth
  }
  const support::Fingerprint fp = control_fingerprint(ctrl);
  (void)work_.push(std::move(ctrl), fp);
}

template <NumDomain N>
AbsResult<N> AbsExplorer<N>::run() {
  std::uint64_t evaluations = 0;
  std::uint64_t requeues = 0;
  telemetry::Telemetry& tel = telemetry::Telemetry::global();
  telemetry::ScopedPhase phase_folding(telemetry::Phase::Folding);
  AbsControl init;
  insert_point(init,
               AbsPoint{prog_.entry_proc(), ev_.settle_pc(prog_.entry_proc(), 0), {}, {}, false});
  enqueue(std::move(init), ev_.initial_store());

  while (const auto popped = work_.pop()) {
    const AbsControl& ctrl = *popped;
    const Store snapshot = states_.at(ctrl);  // copy: transfer only reads it
    transfer(ctrl, snapshot);
    evaluations += 1;
    tel.maybe_progress(states_.size(), 0, work_.size());
    if (conts_grew_) {
      // A new call edge can retroactively give earlier Returns successors:
      // re-evaluate everything (monotone, hence terminating).
      conts_grew_ = false;
      for (const auto& [c, s] : states_) {
        (void)work_.push(c, control_fingerprint(c));
      }
      requeues += 1;
    }
  }

  ev_.move_facts_into(result_);
  result_.num_states = states_.size();
  result_.stats.set("abs_states", states_.size());
  result_.stats.set("abs_mhp_pairs", result_.mhp.size());
  if (evaluations != 0) result_.stats.add("abs_state_evaluations", evaluations);
  if (requeues != 0) result_.stats.add("abs_global_requeues", requeues);
  if (tel.metrics_enabled()) {
    // Byte estimate of the folded state table: per-state control points
    // plus abstract store bindings.
    std::uint64_t store_entries = 0;
    std::uint64_t control_points = 0;
    for (const auto& [ctrl, st] : states_) {
      control_points += ctrl.size();
      store_entries += st.entries().size();
    }
    result_.stats.set_gauge("abs_control_points", control_points);
    result_.stats.set_gauge(
        "abs_store_bytes",
        store_entries * (sizeof(AbsLoc) + sizeof(Value) + 2 * sizeof(void*)));
    result_.stats.set_gauge("peak_rss_bytes", telemetry::peak_rss_bytes());
  }
  tel.publish_stats(result_.stats);
  return std::move(result_);
}

template <NumDomain N>
void AbsExplorer<N>::transfer(const AbsControl& ctrl, const Store& store) {
  // Record folding-level facts of this abstract configuration.
  for (std::size_t i = 0; i < ctrl.size(); ++i) {
    const AbsPoint& p = ctrl[i];
    auto [it, fresh] =
        result_.point_stores.emplace(std::make_pair(p.proc, p.pc), Store::bottom());
    (void)absdom::join_into(it->second, store);

    const sem::Instr& instr = prog_.proc(p.proc).code[p.pc];
    const std::uint32_t stmt = instr.stmt != nullptr ? instr.stmt->id() : sem::kNoStmt;
    if (stmt != sem::kNoStmt) {
      result_.reached_stmts.insert(stmt);
      if (p.omega) result_.mhp.insert({stmt, stmt});
      for (std::size_t j = i + 1; j < ctrl.size(); ++j) {
        const sem::Instr& other = prog_.proc(ctrl[j].proc).code[ctrl[j].pc];
        const std::uint32_t so = other.stmt != nullptr ? other.stmt->id() : sem::kNoStmt;
        if (so == sem::kNoStmt) continue;
        result_.mhp.insert({std::min(stmt, so), std::max(stmt, so)});
      }
    }
  }
  for (std::size_t i = 0; i < ctrl.size(); ++i) transfer_point(ctrl, store, i);
}

template <NumDomain N>
void AbsExplorer<N>::transfer_point(const AbsControl& ctrl, const Store& store,
                                    std::size_t idx) {
  const AbsPoint point = ctrl[idx];
  const sem::Proc& proc = prog_.proc(point.proc);
  const sem::Instr& instr = proc.code[point.pc];

  ev_.cstring = &point.cstring;
  ev_.entry_called = conts_.contains(prog_.entry_proc());
  ev_.begin(instr);

  // Builds the successor control states for this point making a move; an ω
  // point leaves a residual instance behind (count ≥ 2 means "one moves,
  // at least one stays").
  auto move_to = [&](const std::vector<AbsPoint>& new_points) {
    std::vector<AbsControl> out;
    if (!point.omega) {
      AbsControl base = with_point_removed(ctrl, idx);
      for (AbsPoint np : new_points) insert_point(base, std::move(np));
      out.push_back(std::move(base));
    } else {
      for (bool residual_omega : {false, true}) {
        AbsControl base = ctrl;
        base[idx].omega = residual_omega;
        std::sort(base.begin(), base.end());
        for (AbsPoint np : new_points) insert_point(base, np);
        out.push_back(std::move(base));
      }
    }
    return out;
  };
  auto advance = [&](std::uint32_t new_pc) {
    AbsPoint np = point;
    np.omega = false;
    np.pc = ev_.settle_pc(point.proc, new_pc);
    return np;
  };
  auto emit = [&](const std::vector<AbsPoint>& new_points, Store new_store) {
    for (AbsControl succ : move_to(new_points)) enqueue(std::move(succ), new_store);
  };

  switch (instr.op) {
    case sem::Op::Call: {
      Store s = store;
      const Value callee = ev_.eval(s, point.proc, *instr.rhs);
      std::vector<Value> args;
      if (instr.args != nullptr) {
        for (const auto& a : *instr.args) args.push_back(ev_.eval(s, point.proc, *a));
      }
      std::set<AbsLoc> dst;
      if (instr.lhs != nullptr) {
        dst = ev_.lvalue_locs(s, point.proc, *instr.lhs);
        // The eventual return-value write belongs to this call site.
        for (const AbsLoc& loc : dst) ev_.writes().insert(loc);
      }
      // The callee's k-limited call string: caller's, extended by this site.
      std::vector<std::uint32_t> callee_cs = point.cstring;
      if (opts_.call_string_k > 0 && instr.stmt != nullptr) {
        callee_cs.push_back(instr.stmt->id());
        if (callee_cs.size() > opts_.call_string_k) {
          callee_cs.erase(callee_cs.begin(),
                          callee_cs.end() - static_cast<std::ptrdiff_t>(opts_.call_string_k));
        }
      }
      for (std::uint32_t f : callee.fns.elems()) {
        const sem::Proc& target = prog_.proc(f);
        if (target.fun == nullptr) continue;  // thread procs are not callable
        if (target.fun->params().size() != args.size()) continue;  // faults concretely
        result_.call_edges[point.proc].insert(f);
        if (instr.stmt != nullptr) result_.stmt_callees[instr.stmt->id()].insert(f);
        if (conts_[f]
                .insert(Continuation{point.proc, ev_.settle_pc(point.proc, point.pc + 1),
                                     point.path, point.cstring, callee_cs, dst})
                .second) {
          conts_grew_ = true;
        }
        Store s2 = s;
        for (std::size_t i = 0; i < args.size(); ++i) {
          const auto slot = static_cast<std::uint32_t>(1 + i);
          const std::uint32_t pctx = ev_.slot_merged(f, slot) ? 0 : ev_.cstring_ctx(callee_cs);
          s2.join_at(AbsLoc::frame(f, slot, pctx), args[i]);
          ev_.writes().insert(AbsLoc::frame(f, slot, pctx));
        }
        AbsPoint np = point;
        np.omega = false;
        np.proc = f;
        np.pc = ev_.settle_pc(f, 0);
        np.cstring = callee_cs;
        emit({np}, std::move(s2));
      }
      break;
    }
    case sem::Op::Return:
    case sem::Op::Halt: {
      if (proc.is_thread) {
        // Thread exit: the point disappears.
        emit({}, store);
        break;
      }
      Store s = store;
      Value v = Value::of_null();
      if (instr.op == sem::Op::Return && instr.rhs != nullptr) {
        v = ev_.eval(s, point.proc, *instr.rhs);
      }
      if (point.proc == prog_.entry_proc()) {
        emit({}, std::move(s));  // main finished
        break;
      }
      auto it = conts_.find(point.proc);
      if (it == conts_.end()) break;  // callers not discovered yet
      for (const Continuation& cont : it->second) {
        if (cont.path != point.path) continue;           // different thread context
        if (cont.callee_cstring != point.cstring) continue;  // different call context
        Store s2 = s;
        // The write was attributed at the call site; see update().
        if (!cont.dst.empty()) ev_.update(s2, cont.dst, v, /*attribute=*/false);
        AbsPoint np = point;
        np.omega = false;
        np.proc = cont.proc;
        np.pc = cont.pc;
        np.path = cont.path;
        np.cstring = cont.caller_cstring;
        emit({np}, std::move(s2));
      }
      break;
    }
    case sem::Op::Fork: {
      require(instr.stmt != nullptr, "fork without statement");
      const std::uint32_t site = instr.stmt->id();
      std::vector<AbsPoint> news;
      news.push_back(advance(point.pc + 1));  // parent proceeds to the Join
      for (std::uint32_t b = 0; b < instr.forks.size(); ++b) {
        AbsPoint child;
        child.proc = instr.forks[b];
        child.pc = ev_.settle_pc(child.proc, 0);
        child.cstring = point.cstring;  // procedure string continues into threads
        if (opts_.folding == Folding::Tree) {
          child.path = point.path;
          if (child.path.size() < opts_.path_limit) {
            child.path.push_back(AbsPathElem{site, b});
          }
          // else: truncated — the child keeps the parent's path; joins at
          // this depth become over-approximate (see Join below).
        }
        news.push_back(std::move(child));
        result_.fork_edges[point.proc].insert(instr.forks[b]);
      }
      emit(news, store);
      break;
    }
    case sem::Op::ForkRange: {
      // doall: the instance count is a run-time value; abstractly the range
      // may be empty (parent sails through the Join) or hold one-or-more
      // instances (one ω point — exactly the clan picture of §6.2).
      require(instr.stmt != nullptr, "doall without statement");
      Store s = store;
      const Value lo = ev_.eval(s, point.proc, *instr.rhs);
      const Value hi = ev_.eval(s, point.proc, *instr.rhs2);
      const std::uint32_t child_proc = instr.forks.at(0);
      result_.fork_edges[point.proc].insert(child_proc);

      const N nonempty = N::cmp(hi.num, lo.num,
                                +[](std::int64_t x, std::int64_t y) { return x >= y; });
      if (nonempty.may_be_falsy()) {
        emit({advance(point.pc + 1)}, s);  // empty range: nothing forked
      }
      if (nonempty.may_be_truthy() || lo.num.is_bottom() || hi.num.is_bottom()) {
        Store s2 = s;
        // The index of every instance lies in [lo, hi]: join of the bounds.
        const std::uint32_t ictx =
            ev_.slot_merged(child_proc, 1) ? 0 : ev_.cstring_ctx(point.cstring);
        s2.join_at(AbsLoc::frame(child_proc, 1, ictx), Value::of_num(lo.num.join(hi.num)));
        ev_.writes().insert(AbsLoc::frame(child_proc, 1, ictx));
        AbsPoint child;
        child.proc = child_proc;
        child.pc = ev_.settle_pc(child_proc, 0);
        child.cstring = point.cstring;
        child.omega = true;  // one or more instances
        if (opts_.folding == Folding::Tree) {
          child.path = point.path;
          if (child.path.size() < opts_.path_limit) {
            child.path.push_back(AbsPathElem{instr.stmt->id(), 0});
          }
        }
        emit({advance(point.pc + 1), child}, std::move(s2));
      }
      break;
    }
    case sem::Op::Join: {
      bool enabled = true;
      if (point.pc > 0 && (proc.code[point.pc - 1].op == sem::Op::Fork ||
                           proc.code[point.pc - 1].op == sem::Op::ForkRange)) {
        const sem::Instr& fork = proc.code[point.pc - 1];
        require(fork.stmt != nullptr, "fork without statement");
        if (opts_.folding == Folding::Tree && point.path.size() < opts_.path_limit) {
          // Precise: look for this instance's children by exact path.
          for (std::uint32_t b = 0; b < fork.forks.size() && enabled; ++b) {
            std::vector<AbsPathElem> child_path = point.path;
            child_path.push_back(AbsPathElem{fork.stmt->id(), b});
            for (const AbsPoint& q : ctrl) {
              if (q.proc == fork.forks[b] && q.path == child_path) {
                enabled = false;  // that child is definitely still live
                break;
              }
            }
          }
        } else if (opts_.folding == Folding::Clan) {
          // McDowell's rule: the join waits while any clan member of a
          // branch is live. Exact when a cobegin site has at most one
          // simultaneously-active instance (McDowell's model); with
          // multiple concurrent instances this may delay a join past the
          // point where *this* instance's children finished.
          for (const AbsPoint& q : ctrl) {
            for (std::uint32_t child : fork.forks) {
              if (q.proc == child) enabled = false;
            }
          }
        }
        // Truncated Tree paths: fire optimistically — only adds behaviors.
      }
      if (enabled) emit({advance(point.pc + 1)}, store);
      break;
    }
    default:  // straight-line: the shared abstract semantics
      ev_.step(point.proc, point.pc, instr, store, [&](std::uint32_t pc, Store s) {
        emit({advance(pc)}, std::move(s));
      });
  }

  // Attribute this action's accesses to the executing proc and statement.
  auto& reads = result_.reads_direct[point.proc];
  reads.insert(ev_.reads().begin(), ev_.reads().end());
  auto& writes = result_.writes_direct[point.proc];
  writes.insert(ev_.writes().begin(), ev_.writes().end());
  if (instr.stmt != nullptr) {
    auto& sr = result_.stmt_reads[instr.stmt->id()];
    sr.insert(ev_.reads().begin(), ev_.reads().end());
    auto& sw = result_.stmt_writes[instr.stmt->id()];
    sw.insert(ev_.writes().begin(), ev_.writes().end());
  }
}

}  // namespace copar::absem
