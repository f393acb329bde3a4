#include "src/sem/config.h"

#include <algorithm>
#include <sstream>

#include "src/sem/cowstats.h"
#include "src/sem/eval.h"

namespace copar::sem {

std::size_t process_bytes(const Process& p) noexcept {
  return sizeof(Process) + p.frames.capacity() * sizeof(Frame) +
         p.pstr.syms().capacity() * sizeof(PSym) + p.path.capacity() * sizeof(PathElem);
}

ProcessTable::Handle ProcessTable::track(Process&& p) {
  const std::size_t n = process_bytes(p);
  cowstats::add_live_bytes(n);
  return Handle(new Process(std::move(p)),
                [n](Process* ptr) noexcept {
                  cowstats::sub_live_bytes(n);
                  delete ptr;
                });
}

Process& ProcessTable::mutate(Pid pid) {
  require(pid < procs_.size(), "ProcessTable::mutate: bad pid");
  Handle& h = procs_[pid];
  if (h.use_count() != 1) {
    h = track(Process(*h));
    cowstats::note_process_clone();
  }
  if (h->sealed) {
    h->sealed = false;
    dirty_.add(pid);
  }
  return *h;
}

void ProcessTable::push_back(Process&& p) {
  p.sealed = false;
  dirty_.add(static_cast<Pid>(procs_.size()));
  procs_.push_back(track(std::move(p)));
}

void ProcessTable::seal() {
  dirty_.drain(static_cast<std::uint32_t>(procs_.size()), [&](Pid pid) {
    Handle& h = procs_[pid];
    if (h.use_count() != 1 || h->sealed || !h->live()) return;
    h->digest = process_digest(*h);
    h->sealed = true;
  });
}

support::Fingerprint process_digest(const Process& p) noexcept {
  constexpr std::uint64_t kProcessDomain = 0x70726f63657373ULL;  // "process"
  support::ConfigHasher h(kProcessDomain);
  h.word(p.path.size());
  for (const PathElem& e : p.path) h.pair(e.site, e.branch);
  hash_pstring(h, p.pstr);
  h.pair(p.pending_children, static_cast<std::uint32_t>(p.frames.size()));
  for (const Frame& f : p.frames) {
    h.pair(f.proc, f.pc);
    h.word(f.has_ret_dst ? (std::uint64_t{1} << 32) | f.ret_off : 0);
  }
  return h.finalize();
}

std::string_view fault_name(Fault f) {
  switch (f) {
    case Fault::DerefNull: return "null dereference";
    case Fault::DerefNonPointer: return "dereference of non-pointer";
    case Fault::OutOfBounds: return "out-of-bounds access";
    case Fault::TypeError: return "type error";
    case Fault::DivByZero: return "division by zero";
    case Fault::NotAFunction: return "call of non-function";
    case Fault::ArityMismatch: return "wrong number of arguments";
    case Fault::UnlockNotHeld: return "unlock of lock not held";
    case Fault::NegativeAlloc: return "negative allocation size";
  }
  return "<?>";
}

Configuration Configuration::initial(const LoweredProgram& program) {
  Configuration cfg;
  cfg.program_ = &program;

  // Globals frame (always object 0). Cell 0 is unused (uniform layout).
  const ObjId g = cfg.store.allocate(ObjKind::Globals, 0, 0, ProcString(), program.nglobal_cells());
  require(g == 0, "globals frame must be object 0");
  cfg.store.write(0, 0, Value::null());

  // Named functions first (so initializers may reference any function),
  // then initializer expressions, left to right.
  for (const GlobalSlot& slot : program.globals()) {
    if (slot.fun != nullptr) {
      cfg.store.write(0, slot.slot, Value::closure(slot.fun->index(), kNoObj));
    }
  }
  for (const GlobalSlot& slot : program.globals()) {
    if (slot.init != nullptr) {
      Evaluator ev(cfg, kNoObj);
      try {
        cfg.store.write(0, slot.slot, ev.eval(*slot.init));
      } catch (const EvalFault& f) {
        throw Error("global initializer for '" +
                    std::string(program.module().interner().spelling(slot.name)) +
                    "' faulted: " + std::string(fault_name(f.kind)));
      }
    }
  }

  // Root process entering main.
  const Proc& entry = program.proc(program.entry_proc());
  const ObjId frame =
      cfg.store.allocate(ObjKind::Frame, entry.id, 0, ProcString(), std::max(entry.nslots, 1u));
  cfg.store.write(frame, 0, Value::null());
  Process root;
  root.status = ProcStatus::Running;
  root.frames.push_back(Frame{entry.id, 0, frame, false, kNoObj, 0});
  root.pstr = ProcString().append(ProcString::call_sym(entry.id));
  cfg.processes.push_back(std::move(root));
  cfg.seal();
  return cfg;
}

std::size_t Configuration::num_live() const {
  return static_cast<std::size_t>(
      std::count_if(processes.begin(), processes.end(),
                    [](const Process& p) { return p.live(); }));
}

std::optional<Value> Configuration::global_value(std::string_view name) const {
  for (const GlobalSlot& slot : program_->globals()) {
    if (program_->module().interner().spelling(slot.name) == name) {
      return store.read(0, slot.slot);
    }
  }
  return std::nullopt;
}

namespace {

/// Little-endian byte serializer for canonical keys.
class ByteSink {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

template <class Sink>
void emit_pstring(Sink& sink, const ProcString& s) {
  sink.u32(static_cast<std::uint32_t>(s.size()));
  for (const PSym& sym : s.syms()) {
    sink.u8(static_cast<std::uint8_t>(sym.kind));
    sink.u32(sym.id);
    sink.u32(sym.branch);
  }
}

constexpr std::uint32_t kUnset = 0xffffffffu;

/// The canonical order of one configuration: live pids by fork path, their
/// canonical numbers, and the reachable objects in traversal order with
/// their canonical numbers. One per thread, reused across calls: `remap`
/// and `canon_pid` are indexed by ObjId/Pid and hold kUnset everywhere
/// except at the entries the previous call set, which the next call resets
/// (so a call costs the reachable part, not the whole store).
struct CanonOrder {
  std::vector<Pid> live;
  std::vector<std::uint32_t> canon_pid;
  std::vector<std::uint32_t> remap;
  std::vector<ObjId> order;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> locks;

  [[nodiscard]] std::uint32_t canon_obj(ObjId obj) const {
    return obj < remap.size() ? remap[obj] : kUnset;  // kNoObj maps out
  }
};

thread_local CanonOrder canon_scratch;

/// Fills the thread's CanonOrder for `cfg` — the one canonicalization
/// traversal behind canonical_key() and canonical_fingerprint(): live
/// processes sorted by fork path, objects renumbered by a deterministic
/// reachability scan from the globals frame and the live frames (which
/// doubles as a garbage collection), and the lock table sorted by
/// canonical location.
const CanonOrder& canonical_order(const Configuration& cfg, bool cached) {
  CanonOrder& c = canon_scratch;
  for (const Pid pid : c.live) c.canon_pid[pid] = kUnset;
  for (const ObjId obj : c.order) c.remap[obj] = kUnset;
  c.live.clear();
  c.order.clear();
  if (c.canon_pid.size() < cfg.processes.size()) c.canon_pid.resize(cfg.processes.size(), kUnset);
  if (c.remap.size() < cfg.store.num_objects()) c.remap.resize(cfg.store.num_objects(), kUnset);

  // 1. Canonical order of live processes: lexicographic by fork path.
  for (Pid pid = 0; pid < cfg.processes.size(); ++pid) {
    if (cfg.processes[pid].live()) c.live.push_back(pid);
  }
  std::sort(c.live.begin(), c.live.end(),
            [&](Pid a, Pid b) { return cfg.processes[a].path < cfg.processes[b].path; });
  for (std::uint32_t i = 0; i < c.live.size(); ++i) c.canon_pid[c.live[i]] = i;

  // 2. Object renumbering by deterministic reachability. Only the entries
  // below num_objects() are consulted, so a larger scratch from an earlier
  // configuration is harmless.
  auto visit = [&](ObjId obj) {
    if (obj >= cfg.store.num_objects()) return;  // kNoObj
    std::uint32_t& slot = c.remap[obj];
    if (slot == kUnset) {
      slot = static_cast<std::uint32_t>(c.order.size());
      c.order.push_back(obj);
    }
  };
  visit(0);  // globals frame
  for (const Pid pid : c.live) {
    for (const Frame& f : cfg.processes[pid].frames) {
      visit(f.frame_obj);
      if (f.has_ret_dst) visit(f.ret_obj);
    }
  }
  for (std::size_t i = 0; i < c.order.size(); ++i) {  // order grows during scan
    const Object& o = cfg.store.object(c.order[i]);
    if (cached && o.sealed && !o.has_refs) continue;  // nothing to visit
    for (const Value& v : o.cells) {
      if (v.is_ptr()) visit(v.ptr_obj());
      if (v.is_closure()) visit(v.closure_env());
    }
  }

  // 3. Lock table, sorted by canonical location; a lock on an unreachable
  // cell is inert.
  c.locks.clear();
  for (const auto& [loc, owner] : cfg.lock_owners) {
    const std::uint32_t co = c.canon_obj(loc.first);
    if (co == kUnset) continue;
    c.locks.emplace_back(co, loc.second, owner < cfg.processes.size() ? c.canon_pid[owner] : kUnset);
  }
  std::sort(c.locks.begin(), c.locks.end());
  return c;
}

/// The canonical key's bytes, in the order canonical_order() fixes. The
/// key reads no cached digest or bit: it is the reference the fingerprint
/// is checked against.
std::string serialize_key(const Configuration& cfg) {
  const CanonOrder& c = canonical_order(cfg, /*cached=*/false);
  ByteSink sink;
  auto emit_value = [&](const Value& v) {
    sink.u8(static_cast<std::uint8_t>(v.kind()));
    switch (v.kind()) {
      case VKind::Int:
        sink.u64(static_cast<std::uint64_t>(v.as_int()));
        break;
      case VKind::Null:
        break;
      case VKind::Ptr:
        sink.u32(c.canon_obj(v.ptr_obj()));
        sink.u32(v.ptr_off());
        break;
      case VKind::Closure:
        sink.u32(v.closure_proc());
        sink.u32(c.canon_obj(v.closure_env()));
        break;
    }
  };

  sink.u32(static_cast<std::uint32_t>(c.order.size()));
  for (const ObjId obj : c.order) {
    const Object& o = cfg.store.object(obj);
    sink.u8(static_cast<std::uint8_t>(o.obj_kind));
    sink.u32(o.site);
    emit_pstring(sink, o.birth);
    sink.u32(static_cast<std::uint32_t>(o.cells.size()));
    for (const Value& v : o.cells) emit_value(v);
  }

  sink.u32(static_cast<std::uint32_t>(c.live.size()));
  for (const Pid pid : c.live) {
    const Process& p = cfg.processes[pid];
    sink.u32(static_cast<std::uint32_t>(p.path.size()));
    for (const PathElem& e : p.path) {
      sink.u32(e.site);
      sink.u32(e.branch);
    }
    emit_pstring(sink, p.pstr);
    sink.u32(p.pending_children);
    sink.u32(static_cast<std::uint32_t>(p.frames.size()));
    for (const Frame& f : p.frames) {
      sink.u32(f.proc);
      sink.u32(f.pc);
      sink.u32(c.canon_obj(f.frame_obj));
      sink.u8(f.has_ret_dst ? 1 : 0);
      if (f.has_ret_dst) {
        sink.u32(c.canon_obj(f.ret_obj));
        sink.u32(f.ret_off);
      }
    }
  }

  sink.u32(static_cast<std::uint32_t>(c.locks.size()));
  for (const auto& [obj, off, owner] : c.locks) {
    sink.u32(obj);
    sink.u32(off);
    sink.u32(owner);
  }

  sink.u32(static_cast<std::uint32_t>(cfg.violations.size()));
  for (std::uint32_t v : cfg.violations) sink.u32(v);
  sink.u32(static_cast<std::uint32_t>(cfg.faults.size()));
  for (const auto& [stmt, kind] : cfg.faults) {
    sink.u32(stmt);
    sink.u8(kind);
  }
  return sink.take();
}

/// The fingerprint over the same canonical order: each reachable object's
/// digest followed by its renumbered reference targets, each live
/// process's digest followed by its renumbered frame and return objects,
/// then the lock table, violations and faults — every part length-prefixed
/// (a digest fixes the count of what follows it). Everything hashed is a
/// function of the canonical key, and the encoding is unambiguous, so
/// equal keys give equal fingerprints and distinct keys distinct ones
/// (up to collisions). `cached` = false ignores every cached digest.
support::Fingerprint fingerprint(const Configuration& cfg, bool cached) {
  const CanonOrder& c = canonical_order(cfg, cached);
  support::ConfigHasher h;

  h.word(c.order.size());
  for (const ObjId obj : c.order) {
    const Object& o = cfg.store.object(obj);
    const ObjectDigest d =
        cached && o.sealed ? ObjectDigest{o.digest, o.has_refs} : object_digest(o);
    h.digest(d.digest);
    if (!d.has_refs) continue;
    for (const Value& v : o.cells) {
      if (v.is_ptr()) h.word(c.canon_obj(v.ptr_obj()));
      if (v.is_closure() && v.closure_env() != kNoObj) h.word(c.canon_obj(v.closure_env()));
    }
  }

  h.word(c.live.size());
  for (const Pid pid : c.live) {
    const Process& p = cfg.processes[pid];
    h.digest(cached && p.sealed ? p.digest : process_digest(p));
    for (const Frame& f : p.frames) {
      h.pair(c.canon_obj(f.frame_obj), f.has_ret_dst ? c.canon_obj(f.ret_obj) : kUnset);
    }
  }

  h.word(c.locks.size());
  for (const auto& [obj, off, owner] : c.locks) {
    h.pair(obj, off);
    h.word(owner);
  }

  h.word(cfg.violations.size());
  for (const std::uint32_t v : cfg.violations) h.word(v);
  h.word(cfg.faults.size());
  for (const auto& [stmt, kind] : cfg.faults) h.pair(stmt, kind);
  return h.finalize();
}

}  // namespace

std::string Configuration::canonical_key() const { return serialize_key(*this); }

support::Fingerprint Configuration::canonical_fingerprint() const {
  return fingerprint(*this, /*cached=*/true);
}

support::Fingerprint Configuration::recomputed_fingerprint() const {
  return fingerprint(*this, /*cached=*/false);
}

std::vector<bool> reachable_objects(const Configuration& cfg) {
  std::vector<bool> seen(cfg.store.num_objects(), false);
  std::vector<ObjId> work;
  auto visit = [&](ObjId obj) {
    if (obj == kNoObj || obj >= seen.size() || seen[obj]) return;
    seen[obj] = true;
    work.push_back(obj);
  };
  visit(0);
  for (const Process& p : cfg.processes) {
    if (!p.live()) continue;
    for (const Frame& f : p.frames) {
      visit(f.frame_obj);
      if (f.has_ret_dst) visit(f.ret_obj);
    }
  }
  while (!work.empty()) {
    const ObjId obj = work.back();
    work.pop_back();
    for (const Value& v : cfg.store.object(obj).cells) {
      if (v.is_ptr()) visit(v.ptr_obj());
      if (v.is_closure()) visit(v.closure_env());
    }
  }
  return seen;
}

std::string Configuration::to_string() const {
  std::ostringstream os;
  for (Pid pid = 0; pid < processes.size(); ++pid) {
    const Process& p = processes[pid];
    os << "p" << pid;
    switch (p.status) {
      case ProcStatus::Running: os << " [run]"; break;
      case ProcStatus::Terminated: os << " [done]"; break;
      case ProcStatus::Faulted: os << " [fault]"; break;
    }
    if (p.live()) {
      os << " at ";
      for (std::size_t i = 0; i < p.frames.size(); ++i) {
        if (i > 0) os << " > ";
        os << program_->describe_point(p.frames[i].proc, p.frames[i].pc);
      }
      if (p.pending_children > 0) os << " (waiting on " << p.pending_children << ")";
    }
    os << " pstr=" << p.pstr.to_string() << '\n';
  }
  os << store.to_string();
  if (!violations.empty()) {
    os << "violations:";
    for (std::uint32_t v : violations) os << ' ' << v;
    os << '\n';
  }
  if (!faults.empty()) {
    os << "faults:";
    for (const auto& [stmt, kind] : faults) {
      os << " (stmt " << stmt << ": " << fault_name(static_cast<Fault>(kind)) << ')';
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace copar::sem
