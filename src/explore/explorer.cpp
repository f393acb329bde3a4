#include "src/explore/explorer.h"

#include <algorithm>
#include <sstream>

#include "src/explore/core.h"
#include "src/explore/parexplore.h"
#include "src/explore/proviso.h"
#include "src/explore/stubborn.h"
#include "src/explore/visited.h"
#include "src/sem/cowstats.h"
#include "src/support/telemetry.h"

namespace copar::explore {

using sem::ActionInfo;
using sem::ActionKind;
using sem::Configuration;
using sem::Pid;

std::set<std::string> ExploreResult::terminal_keys() const {
  std::set<std::string> keys;
  for (const auto& [key, info] : terminals) keys.insert(key);
  return keys;
}

std::set<std::int64_t> ExploreResult::terminal_int_values(std::string_view name) const {
  std::set<std::int64_t> values;
  for (const auto& [key, info] : terminals) {
    if (auto v = info.config.global_value(name); v.has_value() && v->is_int()) {
      values.insert(v->as_int());
    }
  }
  return values;
}

Explorer::Explorer(const sem::LoweredProgram& program, ExploreOptions options)
    : program_(program), options_(options), static_info_(program) {}

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

std::vector<Pid> Explorer::choose_expansion(const Configuration& cfg,
                                            const std::vector<ActionInfo>& infos,
                                            ExploreResult& result) const {
  std::vector<Pid> enabled;
  for (const ActionInfo& info : infos) {
    if (info.enabled) enabled.push_back(info.pid);
  }
  if (options_.reduction == Reduction::Full || enabled.size() <= 1) return enabled;

  (void)result;  // counters live in hot_, pre-resolved against result.stats
  const StubbornChoice choice = [&] {
    telemetry::ScopedPhase phase(telemetry::Phase::Stubborn);
    return stubborn_set(cfg, infos, static_info_);
  }();
  hot_.stubborn_steps.add();
  if (choice.expand.size() == 1) hot_.stubborn_singletons.add();
  if (!choice.is_full) hot_.stubborn_reduced_steps.add();
  return choice.expand;
}

struct Explorer::StackEntry {
  Configuration cfg;
  std::uint32_t id = 0;
  std::vector<Pid> expand;
  std::size_t next = 0;
  bool expanded_full = false;
  /// Sleep set at this state (sleep_sets mode): pids whose firing here is
  /// covered by an earlier sibling order.
  std::set<Pid> sleep;
};

ExploreResult Explorer::run() {
  ExploreResult result;
  hot_ = HotCounters{
      result.stats.counter("stubborn_steps"),
      result.stats.counter("stubborn_singletons"),
      result.stats.counter("stubborn_reduced_steps"),
      result.stats.counter("sleep_suppressed_transitions"),
      result.stats.counter("proviso_full_expansions"),
      result.stats.counter("sleep_reexplorations"),
      result.stats.counter("truncated_transitions"),
  };
  telemetry::Telemetry& tel = telemetry::Telemetry::global();
  telemetry::ScopedPhase phase_expansion(telemetry::Phase::Expansion);
  const sem::cowstats::Snapshot cow0 = sem::cowstats::snapshot();
  std::uint64_t frontier_peak_bytes = 0;
  VisitedSet visited(options_.exact_keys);
  Recorder recorder(options_);
  StepCounters step_counters;
  DfsStackProviso proviso;
  std::vector<StackEntry> stack;

  // sleep_sets mode: per-id stored sleep (for the revisit rule) and retained
  // configurations (re-exploration needs the state back).
  std::vector<std::set<Pid>> sleep_store;
  std::vector<Configuration> cfg_store;

  // Registers a freshly inserted configuration; returns its id. For new
  // non-terminal configurations, pushes a stack entry. The VisitedSet hands
  // out dense insertion-order ids, so `id` indexes the side arrays.
  auto register_config = [&](Configuration&& cfg, std::uint32_t id,
                             std::set<Pid> sleep) -> std::uint32_t {
    require(id == proviso.num_states(), "visited-set ids must be dense");
    proviso.add_state();
    result.num_configs += 1;

    for (std::uint32_t v : cfg.violations) result.violations.insert(v);
    for (const auto& f : cfg.faults) result.faults.insert(f);

    const std::vector<ActionInfo> infos = sem::all_action_infos(cfg);
    const bool any_enabled =
        std::any_of(infos.begin(), infos.end(), [](const ActionInfo& i) { return i.enabled; });
    if (!any_enabled) {
      const bool deadlock = cfg.num_live() > 0;
      result.deadlock_found = result.deadlock_found || deadlock;
      recorder.terminal_lifetimes(cfg);
      if (options_.record_graph) {
        result.graph.terminal_nodes.push_back(id);
        if (deadlock) result.graph.deadlock_nodes.push_back(id);
      }
      if (options_.sleep_sets) {
        sleep_store.emplace_back();
        cfg_store.push_back(cfg);
      }
      // Terminals are few; materializing their full keys here is the only
      // place fingerprint mode still serializes a canonical key.
      std::string key;
      {
        telemetry::ScopedPhase phase_canon(telemetry::Phase::Canonicalize);
        key = cfg.canonical_key();
      }
      result.terminals.emplace(std::move(key), TerminalInfo{std::move(cfg), deadlock});
      return id;
    }
    recorder.pairs(infos);

    StackEntry entry;
    entry.cfg = std::move(cfg);
    entry.id = id;
    entry.expand = choose_expansion(entry.cfg, infos, result);
    if (options_.sleep_sets) {
      sleep_store.push_back(sleep);
      cfg_store.push_back(entry.cfg);
      std::erase_if(entry.expand, [&](Pid p) {
        const bool sleeping = sleep.contains(p);
        if (sleeping) hot_.sleep_suppressed_transitions.add();
        return sleeping;
      });
      entry.sleep = std::move(sleep);
      if (entry.expand.empty()) return id;  // fully covered elsewhere
    }
    proviso.enter(id);
    stack.push_back(std::move(entry));
    return id;
  };

  Configuration init = Configuration::initial(program_);
  VisitedSet::Probe init_probe;
  {
    telemetry::ScopedPhase phase_canon(telemetry::Phase::Canonicalize);
    init_probe = visited.insert(init);
  }
  register_config(std::move(init), init_probe.id, {});

  while (!stack.empty()) {
    StackEntry& top = stack.back();
    if (top.next >= top.expand.size()) {
      proviso.leave(top.id);
      stack.pop_back();
      continue;
    }
    const std::size_t fire_index = top.next;
    const Pid pid = top.expand[top.next++];
    const std::uint32_t from_id = top.id;

    // Capture edge metadata before stepping; sleep sets also need the fired
    // action for independence filtering.
    sem::ActionKind edge_kind = ActionKind::None;
    std::uint32_t edge_stmt = sem::kNoStmt;
    ActionInfo fired;
    const bool have_fired = options_.record_graph || options_.sleep_sets;
    if (have_fired) {
      fired = sem::action_info(top.cfg, pid);
      edge_kind = fired.kind;
      edge_stmt = fired.stmt_id;
    }

    // Successor sleep set: surviving (independent) entries of this state's
    // sleep plus the earlier-fired siblings that are independent of `pid`.
    std::set<Pid> succ_sleep;
    if (options_.sleep_sets) {
      auto keep_if_independent = [&](Pid t) {
        const ActionInfo other = sem::action_info(top.cfg, t);
        if (!other.exists) return;
        if (!actions_conflict(fired, other)) succ_sleep.insert(t);
      };
      for (Pid t : top.sleep) keep_if_independent(t);
      for (std::size_t i = 0; i < fire_index; ++i) keep_if_independent(top.expand[i]);
    }

    Configuration succ = core_step(top.cfg, pid, static_info_, options_.coarsen, recorder,
                                   step_counters, have_fired ? &fired : nullptr);
    result.num_transitions += 1;
    const std::uint64_t live_bytes = sem::cowstats::live_bytes();
    if (live_bytes > frontier_peak_bytes) frontier_peak_bytes = live_bytes;
    tel.set_live(telemetry::Gauge::FrontierBytes, live_bytes);
    tel.maybe_progress(result.num_configs, result.num_transitions, stack.size());
    VisitedSet::Probe probe;
    {
      telemetry::ScopedPhase phase_canon(telemetry::Phase::Canonicalize);
      probe = visited.insert(succ);
    }

    std::uint32_t to_id;
    if (!probe.inserted) {
      to_id = probe.id;
      // Stack proviso (ignoring problem): a reduced expansion that closes a
      // cycle on the DFS stack re-expands the source state fully.
      if (options_.reduction == Reduction::Stubborn && proviso.on_stack(to_id)) {
        StackEntry& cur = stack.back();
        if (!cur.expanded_full) {
          cur.expanded_full = true;
          cur.next = 0;
          cur.expand.clear();
          cur.sleep.clear();
          for (const ActionInfo& info : sem::all_action_infos(cur.cfg)) {
            if (info.enabled) cur.expand.push_back(info.pid);
          }
          hot_.proviso_full_expansions.add();
        }
      }
      // Sleep revisit rule: transitions sleeping on the first visit but
      // awake now must be explored from the stored configuration.
      if (options_.sleep_sets) {
        std::set<Pid> missing;
        for (Pid t : sleep_store[to_id]) {
          if (!succ_sleep.contains(t)) missing.insert(t);
        }
        if (!missing.empty()) {
          std::set<Pid> narrowed;
          for (Pid t : sleep_store[to_id]) {
            if (succ_sleep.contains(t)) narrowed.insert(t);
          }
          sleep_store[to_id] = narrowed;
          StackEntry redo;
          redo.cfg = cfg_store[to_id];
          redo.id = to_id;
          for (Pid t : missing) {
            const ActionInfo info = sem::action_info(redo.cfg, t);
            if (info.exists && info.enabled) redo.expand.push_back(t);
          }
          redo.sleep = std::move(narrowed);
          if (!redo.expand.empty()) {
            proviso.enter(to_id);
            stack.push_back(std::move(redo));
            hot_.sleep_reexplorations.add();
          }
        }
      }
    } else {
      if (result.num_configs >= options_.max_configs) {
        // The transition was fired but its successor is dropped: take it
        // back out of both the visited set and num_transitions so the
        // invariant graph.edges.size() == num_transitions survives
        // truncation, and account for the drop separately.
        visited.erase(probe, succ);
        result.num_transitions -= 1;
        hot_.truncated_transitions.add();
        result.truncated = true;
        break;
      }
      to_id = register_config(std::move(succ), probe.id, std::move(succ_sleep));
    }
    if (options_.record_graph) {
      result.graph.edges.push_back(StateGraph::Edge{from_id, to_id, edge_stmt, edge_kind});
    }
  }

  recorder.merge_into(result);
  result.graph.num_nodes = result.num_configs;
  result.stats.set("configs", result.num_configs);
  result.stats.set("transitions", result.num_transitions);
  result.stats.set("terminals", result.terminals.size());
  result.stats.set("deadlocks", result.deadlock_found ? 1 : 0);
  if (step_counters.coarsened_micro_actions != 0) {
    result.stats.add("coarsened_micro_actions", step_counters.coarsened_micro_actions);
  }
  if (step_counters.coarsen_guard_hits != 0) {
    result.stats.add("coarsen_guard_hits", step_counters.coarsen_guard_hits);
  }

  // Dedup-structure gauges are cheap to read off the VisitedSet, so they
  // are published unconditionally (benchmarks compare them with metrics
  // off); only the getrusage call stays behind the metrics switch.
  result.stats.set_gauge("visited_bytes", visited.memory_bytes());
  result.stats.set_gauge("visited_configs", visited.size());
  result.stats.set_gauge("fingerprint_collisions", visited.collisions());
  {
    const sem::cowstats::Snapshot cow1 = sem::cowstats::snapshot();
    result.stats.set_gauge("cow.objects_copied", cow1.objects_copied - cow0.objects_copied);
    result.stats.set_gauge("cow.objects_shared", cow1.objects_shared - cow0.objects_shared);
    result.stats.set_gauge("cow.process_clones", cow1.process_clones - cow0.process_clones);
    result.stats.set_gauge("frontier_peak_bytes", frontier_peak_bytes);
  }
  if (tel.metrics_enabled()) {
    result.stats.set_gauge("peak_rss_bytes", telemetry::peak_rss_bytes());
  }
  if (tel.live_enabled()) {
    tel.set_live(telemetry::Gauge::Configs, result.num_configs);
    tel.set_live(telemetry::Gauge::Transitions, result.num_transitions);
    tel.set_live(telemetry::Gauge::VisitedEntries, visited.size());
    tel.set_live(telemetry::Gauge::VisitedBytes, visited.memory_bytes());
    tel.set_live(telemetry::Gauge::Frontier, 0);
    tel.set_live(telemetry::Gauge::FrontierBytes, sem::cowstats::live_bytes());
  }
  tel.publish_stats(result.stats);
  return result;
}

ExploreResult explore(const sem::LoweredProgram& program, const ExploreOptions& options) {
  if (options.threads > 1) return parallel_explore(program, options);
  return Explorer(program, options).run();
}

std::string to_dot(const StateGraph& graph, const sem::LoweredProgram& prog) {
  std::ostringstream os;
  os << "digraph configurations {\n";
  os << "  rankdir=TB;\n  node [shape=circle, label=\"\", width=0.25];\n";
  for (std::uint32_t t : graph.terminal_nodes) {
    os << "  n" << t << " [shape=doublecircle];\n";
  }
  for (std::uint32_t d : graph.deadlock_nodes) {
    os << "  n" << d << " [style=filled, fillcolor=\"#cc3333\"];\n";
  }
  os << "  n0 [style=filled, fillcolor=\"#99ccff\"];\n";  // initial
  for (const StateGraph::Edge& e : graph.edges) {
    os << "  n" << e.from << " -> n" << e.to;
    std::string label;
    if (e.stmt != sem::kNoStmt) {
      // Labels only for statements the user named; everything else stays
      // compact.
      for (const auto& [sym, stmt] : prog.module().labels()) {
        if (stmt->id() == e.stmt) label = prog.module().interner().spelling(sym);
      }
    }
    if (label.empty()) label = std::string(sem::action_kind_name(e.kind));
    os << " [label=\"" << label << "\", fontsize=9]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace copar::explore
