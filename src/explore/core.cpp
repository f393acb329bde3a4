#include "src/explore/core.h"

#include <algorithm>
#include <set>
#include <string>

#include "src/explore/stubborn.h"
#include "src/support/diagnostics.h"
#include "src/support/telemetry.h"

namespace copar::explore {

using sem::ActionInfo;
using sem::ActionKind;
using sem::Configuration;
using sem::Pid;

namespace {

/// Rendered fork path: the thread context of a process ("" = root line).
std::string thread_context(const sem::Process& p) {
  std::string out;
  for (const sem::PathElem& e : p.path) {
    if (!out.empty()) out += '/';
    out += 's' + std::to_string(e.site) + 'b' + std::to_string(e.branch);
  }
  return out;
}

/// True when `info`'s action touches a critical location class — the end
/// of a coarsened step.
bool action_is_critical(const Configuration& cfg, const ActionInfo& info,
                        const StaticInfo& static_info) {
  bool critical = false;
  info.reads.for_each([&](std::size_t loc) {
    critical = critical || static_info.is_critical(static_info.class_of(cfg.store, loc));
  });
  if (critical) return true;
  info.writes.for_each([&](std::size_t loc) {
    critical = critical || static_info.is_critical(static_info.class_of(cfg.store, loc));
  });
  return critical;
}

/// Every ExploreCounters field with its stats name.
constexpr std::pair<const char*, std::uint64_t ExploreCounters::*> kCounterFields[] = {
    {"stubborn_steps", &ExploreCounters::stubborn_steps},
    {"stubborn_singletons", &ExploreCounters::stubborn_singletons},
    {"stubborn_reduced_steps", &ExploreCounters::stubborn_reduced_steps},
    {"proviso_full_expansions", &ExploreCounters::proviso_full_expansions},
    {"coarsened_micro_actions", &ExploreCounters::coarsened_micro_actions},
    {"coarsen_guard_hits", &ExploreCounters::coarsen_guard_hits},
    {"truncated_transitions", &ExploreCounters::truncated_transitions},
    {"sleep_suppressed_transitions", &ExploreCounters::sleep_suppressed_transitions},
    {"sleep_reexplorations", &ExploreCounters::sleep_reexplorations},
    {"sleep.pids_capped", &ExploreCounters::sleep_pids_capped},
};

}  // namespace

ExploreCounters& ExploreCounters::operator+=(const ExploreCounters& other) {
  for (const auto& [name, field] : kCounterFields) this->*field += other.*field;
  return *this;
}

void ExploreCounters::write_to(StatRegistry& stats) const {
  for (const auto& [name, field] : kCounterFields) {
    if (this->*field != 0) stats.add(name, this->*field);
  }
}

const ActionInfo* Expansion::find(Pid pid) const {
  const auto it = std::lower_bound(infos.begin(), infos.end(), pid,
                                   [](const ActionInfo& i, Pid p) { return i.pid < p; });
  return it != infos.end() && it->pid == pid ? &*it : nullptr;
}

const ActionInfo& Expansion::info(Pid pid) const {
  const ActionInfo* found = find(pid);
  require(found != nullptr, "Expansion::info: process not live");
  return *found;
}

Expansion expand_state(const Configuration& cfg, const StaticInfo& static_info,
                       Reduction reduction, ExploreCounters& counters) {
  Expansion e;
  e.infos = sem::all_action_infos(cfg);
  for (const ActionInfo& info : e.infos) {
    if (info.enabled) e.enabled.push_back(info.pid);
  }
  if (reduction == Reduction::Full || e.enabled.size() <= 1) {
    e.fire = e.enabled;
    return e;
  }
  StubbornChoice choice;
  {
    telemetry::ScopedPhase phase(telemetry::Phase::Stubborn);
    choice = stubborn_set(cfg, e.infos, static_info);
  }
  counters.stubborn_steps += 1;
  if (choice.expand.size() == 1) counters.stubborn_singletons += 1;
  if (!choice.is_full) counters.stubborn_reduced_steps += 1;
  e.reduced = !choice.is_full;
  e.fire = std::move(choice.expand);
  return e;
}

std::string LocKey::to_string() const {
  switch (kind) {
    case sem::ObjKind::Globals: return "g[" + std::to_string(off) + "]";
    case sem::ObjKind::Frame:
      return "f" + std::to_string(site) + "[" + std::to_string(off) + "]";
    case sem::ObjKind::Heap:
      return "h" + std::to_string(site) + "[" + std::to_string(off) + "]";
  }
  return "?";
}

LocKey loc_key(const sem::Store& store, std::size_t loc) {
  const auto [obj, off] = store.locate(loc);
  const sem::Object& o = store.object(obj);
  LocKey key;
  key.kind = o.obj_kind;
  key.off = off;
  switch (o.obj_kind) {
    case sem::ObjKind::Globals: key.site = 0; break;
    case sem::ObjKind::Frame:
    case sem::ObjKind::Heap: key.site = o.site; break;
  }
  return key;
}

void Recorder::action(const Configuration& cfg, const ActionInfo& info) {
  if (!accesses_on_) return;
  const sem::Process& p = cfg.processes[info.pid];

  AccessSets sets;
  info.reads.for_each([&](std::size_t loc) { sets.reads.insert(loc_key(cfg.store, loc)); });
  info.writes.for_each([&](std::size_t loc) { sets.writes.insert(loc_key(cfg.store, loc)); });

  if (info.stmt_id != sem::kNoStmt) accesses_.by_stmt[info.stmt_id].merge(sets);
  for (std::size_t i = 0; i < p.frames.size(); ++i) {
    AccessSets attributed = sets;
    // A Return's write of the result cell belongs to the call site, not to
    // the returning activation (a function is still "pure" if its value is
    // stored by its caller).
    if (info.kind == ActionKind::Return && i + 1 == p.frames.size()) attributed.writes.clear();
    accesses_.by_proc[p.frames[i].proc].merge(attributed);
  }

  const std::string ctx = thread_context(p);
  auto touch_site = [&](const LocKey& key) {
    if (key.kind != sem::ObjKind::Heap) return;
    accesses_.sites[key.site].accessor_threads.insert(ctx);
  };
  for (const LocKey& k : sets.reads) touch_site(k);
  for (const LocKey& k : sets.writes) touch_site(k);

  // Cross-process access detection needs the concrete objects.
  auto other_process = [&](const DynamicBitset& locs) {
    locs.for_each([&](std::size_t loc) {
      const auto [obj, off] = cfg.store.locate(loc);
      const sem::Object& o = cfg.store.object(obj);
      if (o.obj_kind == sem::ObjKind::Heap && o.creator != info.pid) {
        accesses_.sites[o.site].accessed_by_other_process = true;
      }
    });
  };
  other_process(info.reads);
  other_process(info.writes);

  if (info.kind == ActionKind::Alloc && info.stmt_id != sem::kNoStmt) {
    SiteInfo& site = accesses_.sites[info.stmt_id];
    site.creator_threads.insert(ctx);
    site.allocated += 1;
  }
}

void Recorder::pairs(const std::vector<ActionInfo>& infos) {
  if (!pairs_on_) return;
  for (std::size_t i = 0; i < infos.size(); ++i) {
    for (std::size_t j = i + 1; j < infos.size(); ++j) {
      const ActionInfo* a = &infos[i];
      const ActionInfo* b = &infos[j];
      if (!a->enabled || !b->enabled) continue;
      if (a->stmt_id == sem::kNoStmt || b->stmt_id == sem::kNoStmt) continue;
      if (a->stmt_id > b->stmt_id) std::swap(a, b);
      PairFacts& facts = pairs_[{a->stmt_id, b->stmt_id}];
      facts.co_enabled = true;
      facts.w1_r2 = facts.w1_r2 || a->writes.intersects(b->reads);
      facts.w1_w2 = facts.w1_w2 || a->writes.intersects(b->writes);
      facts.r1_w2 = facts.r1_w2 || a->reads.intersects(b->writes);
    }
  }
}

void Recorder::return_lifetime(const Configuration& before, Pid pid, const Configuration& after) {
  if (!lifetimes_on_) return;
  const sem::Process& p = before.processes[pid];
  if (p.frames.empty()) return;
  const sem::ProcString& activation_birth = before.store.object(p.top().frame_obj).birth;

  const std::vector<bool> reachable = sem::reachable_objects(after);
  for (sem::ObjId obj = 0; obj < after.store.num_objects(); ++obj) {
    const sem::Object& o = after.store.object(obj);
    if (o.obj_kind != sem::ObjKind::Heap) continue;
    if (!activation_birth.is_prefix_of(o.birth)) continue;  // not born here
    if (obj < reachable.size() && reachable[obj]) {
      accesses_.sites[o.site].escapes_creating_function = true;
    }
  }
}

void Recorder::terminal_lifetimes(const Configuration& cfg) {
  if (!lifetimes_on_) return;
  const std::vector<bool> reachable = sem::reachable_objects(cfg);
  for (sem::ObjId obj = 0; obj < cfg.store.num_objects(); ++obj) {
    const sem::Object& o = cfg.store.object(obj);
    if (o.obj_kind != sem::ObjKind::Heap) continue;
    if (obj < reachable.size() && reachable[obj]) {
      accesses_.sites[o.site].live_at_exit += 1;
    }
  }
}

void Recorder::merge_into(ExploreResult& result) const {
  for (const auto& [stmt, sets] : accesses_.by_stmt) result.accesses.by_stmt[stmt].merge(sets);
  for (const auto& [proc, sets] : accesses_.by_proc) result.accesses.by_proc[proc].merge(sets);
  for (const auto& [site, info] : accesses_.sites) {
    SiteInfo& out = result.accesses.sites[site];
    out.accessor_threads.insert(info.accessor_threads.begin(), info.accessor_threads.end());
    out.creator_threads.insert(info.creator_threads.begin(), info.creator_threads.end());
    out.accessed_by_other_process = out.accessed_by_other_process || info.accessed_by_other_process;
    out.escapes_creating_function =
        out.escapes_creating_function || info.escapes_creating_function;
    out.allocated += info.allocated;
    out.live_at_exit += info.live_at_exit;
  }
  for (const auto& [key, facts] : pairs_) {
    PairFacts& out = result.pairs[key];
    out.co_enabled = out.co_enabled || facts.co_enabled;
    out.w1_r2 = out.w1_r2 || facts.w1_r2;
    out.w1_w2 = out.w1_w2 || facts.w1_w2;
    out.r1_w2 = out.r1_w2 || facts.r1_w2;
  }
}

Configuration core_step(const Configuration& cfg, Pid pid, const StaticInfo& static_info,
                        bool coarsen, Recorder& rec, ExploreCounters& counters,
                        const sem::ActionInfo* info_hint) {
  const bool facts = rec.wants_step_facts();
  Configuration succ = [&] {
    if (!facts) {
      // Fast path: one decode per transition — reuse the engine's enablement
      // check when it provides one.
      if (info_hint != nullptr) return sem::apply_action(cfg, *info_hint);
      return sem::apply_action(cfg, pid);
    }
    const ActionInfo local = info_hint == nullptr ? sem::action_info(cfg, pid) : ActionInfo{};
    const ActionInfo& info = info_hint != nullptr ? *info_hint : local;
    require(info.exists && info.enabled, "core_step: action not fireable");
    rec.action(cfg, info);
    Configuration s = sem::apply_action(cfg, info);
    if (info.kind == ActionKind::Return) rec.return_lifetime(cfg, pid, s);
    return s;
  }();
  if (!coarsen) return succ;

  // Virtual coarsening: keep running this process while its following
  // actions are non-critical (Observation 5). A combined action thus holds
  // at most one critical reference — the first.
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen_points;
  int guard = 0;
  for (; guard < kCoarsenGuardMax; ++guard) {
    const sem::Process& p = succ.processes[pid];
    if (!p.live() || p.frames.empty()) break;
    ActionInfo next = sem::action_info(succ, pid);
    if (!next.exists || !next.enabled) break;
    if (next.kind == ActionKind::Fork) break;
    if (action_is_critical(succ, next, static_info)) break;
    if (!seen_points.insert({next.proc, next.pc}).second) break;  // local cycle
    if (facts) rec.action(succ, next);
    Configuration succ2 = sem::apply_action(succ, next);
    if (facts && next.kind == ActionKind::Return) rec.return_lifetime(succ, pid, succ2);
    succ = std::move(succ2);
    counters.coarsened_micro_actions += 1;
  }
  if (guard == kCoarsenGuardMax) {
    // The cap exists to bound a combined step; reaching it means a
    // "non-critical" straight-line run of unusual length (or a local loop
    // the seen_points cycle check cannot fold). The step stays sound — the
    // remaining actions become ordinary separate steps — but silence here
    // could mask nontermination, so say it once and count every hit.
    counters.coarsen_guard_hits += 1;
    warn_once("coarsen-guard",
              "virtual coarsening stopped after " + std::to_string(kCoarsenGuardMax) +
                  " micro-actions in one combined step; a non-critical local code "
                  "run is unusually long (see the coarsen_guard_hits counter)");
  }
  return succ;
}

std::string terminal_key(const Configuration& cfg) {
  telemetry::ScopedPhase phase(telemetry::Phase::Canonicalize);
  return cfg.canonical_key();
}

void finish_explore(ExploreResult& result, const ExploreCounters& counters,
                    const Footprint& footprint, const sem::cowstats::Snapshot& cow_at_start) {
  result.graph.num_nodes = result.num_configs;
  result.stats.set("configs", result.num_configs);
  result.stats.set("transitions", result.num_transitions);
  result.stats.set("terminals", result.terminals.size());
  result.stats.set("deadlocks", result.deadlock_found ? 1 : 0);
  counters.write_to(result.stats);

  // Dedup-structure and COW gauges are cheap to read, so they are published
  // unconditionally (benchmarks compare them with metrics off); only the
  // getrusage call stays behind the metrics switch.
  result.stats.set_gauge("visited_bytes", footprint.visited_bytes);
  result.stats.set_gauge("visited_configs", footprint.visited_configs);
  result.stats.set_gauge("fingerprint_collisions", footprint.fingerprint_collisions);
  const sem::cowstats::Snapshot cow = sem::cowstats::snapshot();
  result.stats.set_gauge("cow.objects_copied", cow.objects_copied - cow_at_start.objects_copied);
  result.stats.set_gauge("cow.objects_shared", cow.objects_shared - cow_at_start.objects_shared);
  result.stats.set_gauge("cow.process_clones", cow.process_clones - cow_at_start.process_clones);
  result.stats.set_gauge("frontier_peak_bytes", footprint.frontier_peak_bytes);
  telemetry::Telemetry& tel = telemetry::Telemetry::global();
  if (tel.metrics_enabled()) result.stats.set_gauge("peak_rss_bytes", telemetry::peak_rss_bytes());
  if (tel.live_enabled()) {
    // Close the live view on the final numbers so the sampler's last sample
    // (taken on stop) reflects the completed run.
    tel.set_live(telemetry::Gauge::Configs, result.num_configs);
    tel.set_live(telemetry::Gauge::Transitions, result.num_transitions);
    tel.set_live(telemetry::Gauge::VisitedEntries, footprint.visited_configs);
    tel.set_live(telemetry::Gauge::VisitedBytes, footprint.visited_bytes);
    tel.set_live(telemetry::Gauge::Frontier, 0);
    tel.set_live(telemetry::Gauge::FrontierBytes, sem::cowstats::live_bytes());
  }
  tel.publish_stats(result.stats);
}

}  // namespace copar::explore
