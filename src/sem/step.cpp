#include "src/sem/step.h"

#include <cstdint>
#include <new>

#include "src/sem/eval.h"

namespace copar::sem {

std::string_view action_kind_name(ActionKind k) {
  switch (k) {
    case ActionKind::None: return "none";
    case ActionKind::Assign: return "assign";
    case ActionKind::Alloc: return "alloc";
    case ActionKind::Call: return "call";
    case ActionKind::Return: return "return";
    case ActionKind::Branch: return "branch";
    case ActionKind::Fork: return "fork";
    case ActionKind::Join: return "join";
    case ActionKind::Lock: return "lock";
    case ActionKind::Unlock: return "unlock";
    case ActionKind::Assert: return "assert";
  }
  return "<?>";
}

namespace {

/// Folds micro-ops after a pc change: unconditional jumps, and the exit
/// bookkeeping of a cobegin branch that ran off its end.
/// Precondition: the caller already owns `pid`'s process exclusively (it
/// was just mutated or freshly pushed), so the mutate() here never clones.
void settle(Configuration& cfg, Pid pid) {
  Process& p = cfg.processes.mutate(pid);
  for (;;) {
    if (!p.live() || p.frames.empty()) return;
    Frame& f = p.top();
    const Proc& proc = cfg.program().proc(f.proc);
    require(f.pc < proc.code.size(), "pc out of range");
    const Instr& instr = proc.code[f.pc];
    if (instr.op == Op::Jump) {
      f.pc = instr.t1;
      continue;
    }
    if (instr.op == Op::Halt && proc.is_thread && p.frames.size() == 1) {
      // Thread exit: purely local bookkeeping, folded into the preceding
      // action (the paper's coend consumes no transition of its own).
      p.status = ProcStatus::Terminated;
      require(!p.path.empty(), "thread process without fork path");
      p.pstr = p.pstr.append(ProcString::join_sym(p.path.back().site, p.path.back().branch));
      p.frames.clear();
      require(p.parent != kNoPid && cfg.processes[p.parent].pending_children > 0,
              "thread exit without pending parent");
      cfg.processes.mutate(p.parent).pending_children -= 1;
      return;
    }
    return;
  }
}

struct Decoded {
  ActionKind kind = ActionKind::None;
  const Instr* instr = nullptr;
  std::uint32_t proc = 0;
  std::uint32_t pc = 0;
};

/// The current instruction of a live process, with Halt-of-function decoded
/// as an implicit Return.
Decoded decode(const Configuration& cfg, Pid pid) {
  Decoded d;
  const Process& p = cfg.processes[pid];
  if (!p.live() || p.frames.empty()) return d;
  const Frame& f = p.frames.back();
  const Proc& proc = cfg.program().proc(f.proc);
  const Instr& instr = proc.code[f.pc];
  d.instr = &instr;
  d.proc = f.proc;
  d.pc = f.pc;
  switch (instr.op) {
    case Op::Assign: d.kind = ActionKind::Assign; break;
    case Op::Alloc: d.kind = ActionKind::Alloc; break;
    case Op::Call: d.kind = ActionKind::Call; break;
    case Op::Return: d.kind = ActionKind::Return; break;
    case Op::Branch: d.kind = ActionKind::Branch; break;
    case Op::Fork:
    case Op::ForkRange:
      d.kind = ActionKind::Fork;
      break;
    case Op::Join: d.kind = ActionKind::Join; break;
    case Op::Lock: d.kind = ActionKind::Lock; break;
    case Op::Unlock: d.kind = ActionKind::Unlock; break;
    case Op::Assert: d.kind = ActionKind::Assert; break;
    case Op::Halt:
      // settle() consumed thread halts; a Halt seen here is a function
      // (or main) body end: an implicit `return null`.
      d.kind = ActionKind::Return;
      break;
    case Op::Jump:
      throw Error("decode: unsettled jump");
  }
  return d;
}

}  // namespace

ActionInfo action_info(const Configuration& cfg, Pid pid) {
  ActionInfo info;
  const Decoded d = decode(cfg, pid);
  if (d.kind == ActionKind::None) return info;
  const Process& p = cfg.processes[pid];
  info.exists = true;
  info.enabled = true;
  info.kind = d.kind;
  info.pid = pid;
  info.proc = d.proc;
  info.pc = d.pc;
  info.instr = d.instr;
  info.stmt_id = (d.instr->stmt != nullptr) ? d.instr->stmt->id() : kNoStmt;

  const ObjId frame = p.frames.back().frame_obj;
  Evaluator ev(cfg, frame, &info.reads);
  try {
    switch (d.kind) {
      case ActionKind::Assign: {
        (void)ev.eval(*d.instr->rhs);
        const Address a = ev.addr(*d.instr->lhs);
        if (!cfg.store.in_bounds(a.obj, a.off)) throw EvalFault{Fault::OutOfBounds, 0};
        info.writes.set(cfg.store.loc_id(a.obj, a.off));
        break;
      }
      case ActionKind::Alloc: {
        (void)ev.eval(*d.instr->rhs);
        const Address a = ev.addr(*d.instr->lhs);
        if (!cfg.store.in_bounds(a.obj, a.off)) throw EvalFault{Fault::OutOfBounds, 0};
        info.writes.set(cfg.store.loc_id(a.obj, a.off));
        break;
      }
      case ActionKind::Call: {
        (void)ev.eval(*d.instr->rhs);  // callee
        if (d.instr->args != nullptr) {
          for (const auto& arg : *d.instr->args) (void)ev.eval(*arg);
        }
        if (d.instr->lhs != nullptr) (void)ev.addr(*d.instr->lhs);
        // Writes only fresh frame cells — no shared-store writes here; the
        // destination is written by the matching Return.
        break;
      }
      case ActionKind::Return: {
        if (d.instr->op == Op::Return && d.instr->rhs != nullptr) (void)ev.eval(*d.instr->rhs);
        const Frame& f = p.frames.back();
        if (f.has_ret_dst) {
          if (!cfg.store.in_bounds(f.ret_obj, f.ret_off)) throw EvalFault{Fault::OutOfBounds, 0};
          info.writes.set(cfg.store.loc_id(f.ret_obj, f.ret_off));
        }
        break;
      }
      case ActionKind::Branch:
      case ActionKind::Assert: {
        if (d.instr->rhs != nullptr) (void)ev.eval(*d.instr->rhs);
        break;
      }
      case ActionKind::Fork:
        if (d.instr->op == Op::ForkRange) {
          (void)ev.eval(*d.instr->rhs);   // lo
          (void)ev.eval(*d.instr->rhs2);  // hi
        }
        break;
      case ActionKind::Join:
        info.enabled = (p.pending_children == 0);
        break;
      case ActionKind::Lock: {
        const Address a = ev.addr(*d.instr->lhs);
        if (!cfg.store.in_bounds(a.obj, a.off)) throw EvalFault{Fault::OutOfBounds, 0};
        const std::size_t loc = cfg.store.loc_id(a.obj, a.off);
        info.reads.set(loc);
        info.writes.set(loc);
        info.has_lock_loc = true;
        info.lock_obj = a.obj;
        info.lock_off = a.off;
        const Value v = cfg.store.read(a.obj, a.off);
        info.enabled = (v == Value::integer(0));
        break;
      }
      case ActionKind::Unlock: {
        const Address a = ev.addr(*d.instr->lhs);
        if (!cfg.store.in_bounds(a.obj, a.off)) throw EvalFault{Fault::OutOfBounds, 0};
        const std::size_t loc = cfg.store.loc_id(a.obj, a.off);
        info.reads.set(loc);
        info.writes.set(loc);
        info.has_lock_loc = true;
        info.lock_obj = a.obj;
        info.lock_off = a.off;
        break;
      }
      case ActionKind::None:
        break;
    }
  } catch (const EvalFault&) {
    // Firing the action will produce a fault state; it is enabled and
    // writes nothing.
    info.may_fault = true;
    info.enabled = true;
    info.writes.clear();
    info.has_lock_loc = false;
  }
  return info;
}

std::vector<ActionInfo> all_action_infos(const Configuration& cfg) {
  std::vector<ActionInfo> out;
  for (Pid pid = 0; pid < cfg.processes.size(); ++pid) {
    if (!cfg.processes[pid].live()) continue;
    ActionInfo info = action_info(cfg, pid);
    if (info.exists) out.push_back(std::move(info));
  }
  return out;
}

bool is_deadlock(const Configuration& cfg) {
  bool any_live = false;
  for (Pid pid = 0; pid < cfg.processes.size(); ++pid) {
    if (!cfg.processes[pid].live()) continue;
    any_live = true;
    if (action_info(cfg, pid).enabled) return false;
  }
  return any_live;
}

namespace {

/// Fires an already-decoded action. `d` must have been decoded from `cfg`
/// at `pid`'s current control point (either just now, or by the
/// action_info() that established enablement — the configuration must not
/// have changed in between).
Configuration apply_decoded(const Configuration& cfg, Pid pid, const Decoded& d) {
  Configuration next = cfg;  // shallow: shares every object and process
  Process& p = next.processes.mutate(pid);
  require(p.live() && !p.frames.empty(), "apply_action: process not runnable");
  require(d.kind != ActionKind::None, "apply_action: no action");
  const std::uint32_t stmt_id = (d.instr->stmt != nullptr) ? d.instr->stmt->id() : kNoStmt;

  try {
    Frame& f = p.top();
    const ObjId frame = f.frame_obj;
    Evaluator ev(next, frame);
    switch (d.kind) {
      case ActionKind::Assign: {
        const Value v = ev.eval(*d.instr->rhs);
        const Address a = ev.addr(*d.instr->lhs);
        if (!next.store.in_bounds(a.obj, a.off)) throw EvalFault{Fault::OutOfBounds, 0};
        next.store.write(a.obj, a.off, v);
        f.pc += 1;
        break;
      }
      case ActionKind::Alloc: {
        const Value nv = ev.eval(*d.instr->rhs);
        if (!nv.is_int()) throw EvalFault{Fault::TypeError, d.instr->rhs->id()};
        if (nv.as_int() < 0) throw EvalFault{Fault::NegativeAlloc, d.instr->rhs->id()};
        // An object holds at most 2^32 - 1 cells; a larger size must not
        // wrap into a small object.
        if (nv.as_int() > UINT32_MAX) throw std::bad_alloc();
        const Address a = ev.addr(*d.instr->lhs);
        if (!next.store.in_bounds(a.obj, a.off)) throw EvalFault{Fault::OutOfBounds, 0};
        const ObjId obj = next.store.allocate(ObjKind::Heap, stmt_id, pid, p.pstr,
                                              static_cast<std::uint32_t>(nv.as_int()));
        next.store.write(a.obj, a.off, Value::pointer(obj, 0));
        p.top().pc += 1;  // p is handle-stable across store.allocate
        break;
      }
      case ActionKind::Call: {
        const Value callee = ev.eval(*d.instr->rhs);
        if (!callee.is_closure()) throw EvalFault{Fault::NotAFunction, d.instr->rhs->id()};
        const Proc& target = next.program().proc(callee.closure_proc());
        require(!target.is_thread, "call of thread proc");
        std::vector<Value> args;
        if (d.instr->args != nullptr) {
          args.reserve(d.instr->args->size());
          for (const auto& arg : *d.instr->args) args.push_back(ev.eval(*arg));
        }
        require(target.fun != nullptr, "function proc without declaration");
        if (args.size() != target.fun->params().size()) {
          throw EvalFault{Fault::ArityMismatch, d.instr->rhs->id()};
        }
        Frame callee_frame;
        callee_frame.proc = target.id;
        callee_frame.pc = 0;
        if (d.instr->lhs != nullptr) {
          const Address a = ev.addr(*d.instr->lhs);
          if (!next.store.in_bounds(a.obj, a.off)) throw EvalFault{Fault::OutOfBounds, 0};
          callee_frame.has_ret_dst = true;
          callee_frame.ret_obj = a.obj;
          callee_frame.ret_off = a.off;
        }
        p.pstr = p.pstr.append(ProcString::call_sym(target.id));
        const ObjId fobj = next.store.allocate(ObjKind::Frame, target.id, pid, p.pstr,
                                               std::max(target.nslots, 1u));
        next.store.write(fobj, 0,
                         callee.closure_env() == kNoObj
                             ? Value::null()
                             : Value::pointer(callee.closure_env(), 0));
        for (std::size_t i = 0; i < args.size(); ++i) {
          next.store.write(fobj, static_cast<std::uint32_t>(1 + i), args[i]);
        }
        callee_frame.frame_obj = fobj;
        p.top().pc += 1;  // caller resumes after the call
        p.frames.push_back(callee_frame);
        break;
      }
      case ActionKind::Return: {
        Value v = Value::null();
        if (d.instr->op == Op::Return && d.instr->rhs != nullptr) v = ev.eval(*d.instr->rhs);
        const Frame done = p.frames.back();
        if (done.has_ret_dst) {
          if (!next.store.in_bounds(done.ret_obj, done.ret_off)) {
            throw EvalFault{Fault::OutOfBounds, 0};
          }
          next.store.write(done.ret_obj, done.ret_off, v);
        }
        p.pstr = p.pstr.append(ProcString::ret_sym(done.proc));
        p.frames.pop_back();
        if (p.frames.empty()) {
          p.status = ProcStatus::Terminated;
          return next;
        }
        break;
      }
      case ActionKind::Branch: {
        const Value c = ev.eval(*d.instr->rhs);
        f.pc = c.truthy() ? d.instr->t1 : d.instr->t2;
        break;
      }
      case ActionKind::Fork: {
        const std::uint32_t site = stmt_id;
        const ObjId forker_frame = f.frame_obj;
        if (d.instr->op == Op::ForkRange) {
          // doall: evaluate the inclusive range, then one instance per
          // index, each with its own frame (slot 1 = index, static link =
          // forker's frame).
          const Value lo = ev.eval(*d.instr->rhs);
          const Value hi = ev.eval(*d.instr->rhs2);
          if (!lo.is_int() || !hi.is_int()) {
            throw EvalFault{Fault::TypeError, d.instr->rhs->id()};
          }
          const std::int64_t count =
              hi.as_int() >= lo.as_int() ? hi.as_int() - lo.as_int() + 1 : 0;
          const std::uint32_t child_proc = d.instr->forks.at(0);
          const Proc& target = next.program().proc(child_proc);
          p.pending_children = static_cast<std::uint32_t>(count);
          f.pc += 1;
          for (std::int64_t k = 0; k < count; ++k) {
            Process child;
            child.status = ProcStatus::Running;
            child.parent = pid;
            child.path = p.path;
            child.path.push_back(PathElem{site, static_cast<std::uint32_t>(k)});
            child.pstr =
                p.pstr.append(ProcString::fork_sym(site, static_cast<std::uint32_t>(k)));
            const ObjId fobj = next.store.allocate(ObjKind::Frame, child_proc, pid,
                                                   child.pstr, std::max(target.nslots, 2u));
            next.store.write(fobj, 0, Value::pointer(forker_frame, 0));
            next.store.write(fobj, 1, Value::integer(lo.as_int() + k));
            child.frames.push_back(Frame{child_proc, 0, fobj, false, kNoObj, 0});
            next.processes.push_back(std::move(child));
            settle(next, static_cast<Pid>(next.processes.size() - 1));
          }
          break;
        }
        p.pending_children = static_cast<std::uint32_t>(d.instr->forks.size());
        f.pc += 1;  // parent proceeds to the Join
        std::vector<std::uint32_t> children = d.instr->forks;
        for (std::uint32_t b = 0; b < children.size(); ++b) {
          Process child;
          child.status = ProcStatus::Running;
          child.parent = pid;
          child.path = p.path;
          child.path.push_back(PathElem{site, b});
          child.pstr = p.pstr.append(ProcString::fork_sym(site, b));
          child.frames.push_back(Frame{children[b], 0, forker_frame, false, kNoObj, 0});
          next.processes.push_back(std::move(child));
          // An empty branch exits immediately (settle folds its Halt).
          settle(next, static_cast<Pid>(next.processes.size() - 1));
        }
        break;
      }
      case ActionKind::Join: {
        require(p.pending_children == 0, "join fired while children pending");
        f.pc += 1;
        break;
      }
      case ActionKind::Lock: {
        const Address a = ev.addr(*d.instr->lhs);
        if (!next.store.in_bounds(a.obj, a.off)) throw EvalFault{Fault::OutOfBounds, 0};
        require(next.store.read(a.obj, a.off) == Value::integer(0),
                "lock fired while held");
        next.store.write(a.obj, a.off, Value::integer(1));
        next.lock_owners.mut()[{a.obj, a.off}] = pid;
        f.pc += 1;
        break;
      }
      case ActionKind::Unlock: {
        const Address a = ev.addr(*d.instr->lhs);
        if (!next.store.in_bounds(a.obj, a.off)) throw EvalFault{Fault::OutOfBounds, 0};
        const auto it = next.lock_owners->find({a.obj, a.off});
        if (it == next.lock_owners->end() || it->second != pid) {
          throw EvalFault{Fault::UnlockNotHeld, d.instr->lhs->id()};
        }
        next.store.write(a.obj, a.off, Value::integer(0));
        // Erase by key: mut() may clone, which would invalidate `it`.
        next.lock_owners.mut().erase({a.obj, a.off});
        f.pc += 1;
        break;
      }
      case ActionKind::Assert: {
        if (d.instr->rhs != nullptr) {
          const Value c = ev.eval(*d.instr->rhs);
          if (!c.truthy()) next.violations.mut().insert(stmt_id);
        }
        f.pc += 1;
        break;
      }
      case ActionKind::None:
        throw Error("apply_action: none");
    }
  } catch (const EvalFault& fault) {
    p.status = ProcStatus::Faulted;
    p.frames.clear();
    next.faults.mut().insert({stmt_id, static_cast<std::uint8_t>(fault.kind)});
    return next;
  }
  settle(next, pid);
  return next;
}

/// Fires and seals: the successor is still this thread's alone, so its
/// cleared digests are computed here, before any engine can share it.
Configuration apply_sealed(const Configuration& cfg, Pid pid, const Decoded& d) {
  Configuration next = apply_decoded(cfg, pid, d);
  next.seal();
  return next;
}

}  // namespace

Configuration apply_action(const Configuration& cfg, Pid pid) {
  return apply_sealed(cfg, pid, decode(cfg, pid));
}

Configuration apply_action(const Configuration& cfg, const ActionInfo& info) {
  require(info.exists, "apply_action: no action");
  Decoded d;
  d.kind = info.kind;
  d.instr = info.instr;
  d.proc = info.proc;
  d.pc = info.pc;
  return apply_sealed(cfg, info.pid, d);
}

}  // namespace copar::sem
