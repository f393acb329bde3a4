#include "src/explore/stubborn.h"

#include <algorithm>
#include <unordered_map>

#include "src/explore/staticinfo.h"

namespace copar::explore {

using sem::ActionInfo;
using sem::Pid;

bool actions_conflict(const ActionInfo& a, const ActionInfo& b) {
  return a.writes.intersects(b.writes) || a.writes.intersects(b.reads) ||
         a.reads.intersects(b.writes);
}

namespace {

/// Union of the future access classes of every frame of a process (its
/// current code, everything reachable from it, and every continuation in
/// outer frames).
struct ProcessFuture {
  DynamicBitset reads;
  DynamicBitset writes;
};

ProcessFuture process_future(const sem::Configuration& cfg, Pid pid, const StaticInfo& si) {
  // Point-sensitive: each frame contributes only what lies ahead of its pc
  // (outer frames' pcs already point at the continuation after their call).
  ProcessFuture f;
  for (const sem::Frame& frame : cfg.processes[pid].frames) {
    f.reads |= si.future_reads_at(frame.proc, frame.pc);
    f.writes |= si.future_writes_at(frame.proc, frame.pc);
    // A frame's pending return-value write targets a cell captured at call
    // time; it is in no point-future (the caller's pc is already past the
    // call), so add it from the dynamic frame state.
    if (frame.has_ret_dst && cfg.store.in_bounds(frame.ret_obj, frame.ret_off)) {
      f.writes.set(si.class_of(cfg.store, cfg.store.loc_id(frame.ret_obj, frame.ret_off)));
    }
  }
  return f;
}

/// Maps an action's concrete locations to class bitsets.
struct ActionClasses {
  DynamicBitset reads;
  DynamicBitset writes;
};

ActionClasses action_classes(const sem::Configuration& cfg, const ActionInfo& info,
                             const StaticInfo& si) {
  ActionClasses c;
  info.reads.for_each([&](std::size_t loc) { c.reads.set(si.class_of(cfg.store, loc)); });
  info.writes.for_each([&](std::size_t loc) { c.writes.set(si.class_of(cfg.store, loc)); });
  return c;
}

}  // namespace

StubbornChoice stubborn_set(const sem::Configuration& cfg, const std::vector<ActionInfo>& infos,
                            const StaticInfo& si) {
  StubbornChoice choice;

  std::vector<const ActionInfo*> enabled;
  for (const ActionInfo& info : infos) {
    if (info.enabled) enabled.push_back(&info);
  }
  if (enabled.empty()) return choice;

  // Per-process caches, keyed by pid.
  std::unordered_map<Pid, ProcessFuture> futures;
  std::unordered_map<Pid, ActionClasses> classes;
  std::unordered_map<Pid, const ActionInfo*> by_pid;
  for (const ActionInfo& info : infos) by_pid.emplace(info.pid, &info);

  auto future_of = [&](Pid pid) -> const ProcessFuture& {
    auto it = futures.find(pid);
    if (it == futures.end()) it = futures.emplace(pid, process_future(cfg, pid, si)).first;
    return it->second;
  };
  auto classes_of = [&](Pid pid) -> const ActionClasses& {
    auto it = classes.find(pid);
    if (it == classes.end()) {
      it = classes.emplace(pid, action_classes(cfg, *by_pid.at(pid), si)).first;
    }
    return it->second;
  };

  // Closure from one enabled seed.
  auto closure_from = [&](Pid seed) {
    std::vector<Pid> members = {seed};
    std::vector<bool> in_set(cfg.processes.size(), false);
    in_set[seed] = true;
    std::size_t scan = 0;
    auto add = [&](Pid q) {
      if (q < in_set.size() && !in_set[q]) {
        in_set[q] = true;
        members.push_back(q);
      }
    };
    while (scan < members.size()) {
      const Pid p = members[scan++];
      auto it = by_pid.find(p);
      if (it == by_pid.end()) continue;  // no action (shouldn't occur for live)
      const ActionInfo& ap = *it->second;
      if (ap.enabled) {
        // Rule 1: every process that may EVER act dependently with ap.
        const ActionClasses& cp = classes_of(p);
        for (const ActionInfo& aq : infos) {
          if (aq.pid == p || in_set[aq.pid]) continue;
          // A process blocked at a Join that (transitively) waits on p can
          // execute nothing until p terminates, and every action of p —
          // including ap — precedes that; its future cannot be reordered
          // before ap, so it never needs to join the stubborn set for ap.
          if (!aq.enabled && aq.kind == sem::ActionKind::Join) {
            const auto& qpath = cfg.processes[aq.pid].path;
            const auto& ppath = cfg.processes[p].path;
            if (qpath.size() < ppath.size() &&
                std::equal(qpath.begin(), qpath.end(), ppath.begin())) {
              continue;
            }
          }
          const ProcessFuture& fq = future_of(aq.pid);
          if (cp.writes.intersects(fq.reads) || cp.writes.intersects(fq.writes) ||
              cp.reads.intersects(fq.writes)) {
            add(aq.pid);
          }
        }
      } else {
        // Rule 2: include what can enable p.
        if (ap.kind == sem::ActionKind::Join) {
          // Descendants: processes whose path strictly extends p's.
          const auto& ppath = cfg.processes[p].path;
          for (const ActionInfo& aq : infos) {
            const auto& qpath = cfg.processes[aq.pid].path;
            if (qpath.size() > ppath.size() &&
                std::equal(ppath.begin(), ppath.end(), qpath.begin())) {
              add(aq.pid);
            }
          }
        } else if (ap.kind == sem::ActionKind::Lock && ap.has_lock_loc) {
          auto owner = cfg.lock_owners->find({ap.lock_obj, ap.lock_off});
          if (owner != cfg.lock_owners->end()) {
            add(owner->second);
          } else {
            // Held without a tracked owner (user wrote the cell directly):
            // anyone who may write the cell's class could free it.
            const std::uint32_t cls =
                si.class_of(cfg.store, cfg.store.loc_id(ap.lock_obj, ap.lock_off));
            for (const ActionInfo& aq : infos) {
              if (aq.pid == p) continue;
              if (future_of(aq.pid).writes.test(cls)) add(aq.pid);
            }
          }
        } else {
          // Unknown disabled kind: be safe, include everyone.
          for (const ActionInfo& aq : infos) add(aq.pid);
        }
      }
    }
    return members;
  };

  std::vector<Pid> best;
  std::size_t best_enabled = SIZE_MAX;
  for (const ActionInfo* seed : enabled) {
    std::vector<Pid> members = closure_from(seed->pid);
    std::size_t n_enabled = 0;
    for (Pid p : members) {
      auto it = by_pid.find(p);
      if (it != by_pid.end() && it->second->enabled) ++n_enabled;
    }
    if (n_enabled < best_enabled || (n_enabled == best_enabled && members.size() < best.size())) {
      best = std::move(members);
      best_enabled = n_enabled;
      if (best_enabled == 1 && best.size() == 1) break;  // perfectly local action
    }
  }

  for (Pid p : best) {
    auto it = by_pid.find(p);
    if (it != by_pid.end() && it->second->enabled) choice.expand.push_back(p);
  }
  std::sort(choice.expand.begin(), choice.expand.end());
  choice.is_full = (choice.expand.size() == enabled.size());
  return choice;
}

}  // namespace copar::explore
