#include "src/explore/explorer.h"

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

namespace {

struct StackEntry {
  Configuration cfg;
  std::uint32_t id = 0;
  std::vector<Pid> expand;
  std::size_t next = 0;
  bool expanded_full = false;
  /// Sleep set at this state (sleep_sets mode): pids whose firing here is
  /// covered by an earlier sibling order.
  std::set<Pid> sleep;
};

}  // namespace

ExploreResult sequential_explore(const sem::LoweredProgram& program,
                                 const ExploreOptions& options) {
  const StaticInfo static_info(program);
  ExploreResult result;
  ExploreCounters counters;
  telemetry::Telemetry& tel = telemetry::Telemetry::global();
  telemetry::ScopedPhase phase_expansion(telemetry::Phase::Expansion);
  const sem::cowstats::Snapshot cow0 = sem::cowstats::snapshot();
  std::uint64_t frontier_peak_bytes = 0;
  VisitedSet visited(options.exact_keys);
  Recorder recorder(options);
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

    Expansion e = expand_state(cfg, static_info, options.reduction, counters);
    if (e.enabled.empty()) {
      const bool deadlock = cfg.num_live() > 0;
      result.deadlock_found = result.deadlock_found || deadlock;
      recorder.terminal_lifetimes(cfg);
      if (options.record_graph) {
        result.graph.terminal_nodes.push_back(id);
        if (deadlock) result.graph.deadlock_nodes.push_back(id);
      }
      if (options.sleep_sets) {
        sleep_store.emplace_back();
        cfg_store.push_back(cfg);
      }
      std::string key = terminal_key(cfg);
      result.terminals.emplace(std::move(key), TerminalInfo{std::move(cfg), deadlock});
      return id;
    }
    recorder.pairs(e.infos);

    StackEntry entry;
    entry.cfg = std::move(cfg);
    entry.id = id;
    entry.expand = std::move(e.fire);
    if (options.sleep_sets) {
      sleep_store.push_back(sleep);
      cfg_store.push_back(entry.cfg);
      std::erase_if(entry.expand, [&](Pid p) {
        const bool sleeping = sleep.contains(p);
        if (sleeping) counters.sleep_suppressed_transitions += 1;
        return sleeping;
      });
      entry.sleep = std::move(sleep);
      if (entry.expand.empty()) return id;  // fully covered elsewhere
    }
    proviso.enter(id);
    stack.push_back(std::move(entry));
    return id;
  };

  Configuration init = Configuration::initial(program);
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

    // The fired action labels the graph edge; sleep sets also need it for
    // independence filtering.
    ActionInfo fired;
    const bool have_fired = options.record_graph || options.sleep_sets;
    if (have_fired) fired = sem::action_info(top.cfg, pid);

    // Successor sleep set: surviving (independent) entries of this state's
    // sleep plus the earlier-fired siblings that are independent of `pid`.
    std::set<Pid> succ_sleep;
    if (options.sleep_sets) {
      auto keep_if_independent = [&](Pid t) {
        const ActionInfo other = sem::action_info(top.cfg, t);
        if (!other.exists) return;
        if (!actions_conflict(fired, other)) succ_sleep.insert(t);
      };
      for (Pid t : top.sleep) keep_if_independent(t);
      for (std::size_t i = 0; i < fire_index; ++i) keep_if_independent(top.expand[i]);
    }

    Configuration succ = core_step(top.cfg, pid, static_info, options.coarsen, recorder,
                                   counters, have_fired ? &fired : nullptr);
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
      if (options.reduction == Reduction::Stubborn && proviso.on_stack(to_id)) {
        StackEntry& cur = stack.back();
        if (!cur.expanded_full) {
          cur.expanded_full = true;
          cur.next = 0;
          cur.expand.clear();
          cur.sleep.clear();
          for (const ActionInfo& info : sem::all_action_infos(cur.cfg)) {
            if (info.enabled) cur.expand.push_back(info.pid);
          }
          counters.proviso_full_expansions += 1;
        }
      }
      // Sleep revisit rule: transitions sleeping on the first visit but
      // awake now must be explored from the stored configuration.
      if (options.sleep_sets) {
        std::set<Pid> missing;
        std::set<Pid> narrowed;
        for (Pid t : sleep_store[to_id]) (succ_sleep.contains(t) ? narrowed : missing).insert(t);
        if (!missing.empty()) {
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
            counters.sleep_reexplorations += 1;
          }
        }
      }
    } else {
      if (result.num_configs >= options.max_configs) {
        // The transition was fired but its successor is dropped: take it
        // back out of both the visited set and num_transitions so the
        // invariant graph.edges.size() == num_transitions survives
        // truncation, and account for the drop separately.
        visited.erase(probe, succ);
        result.num_transitions -= 1;
        counters.truncated_transitions += 1;
        result.truncated = true;
        break;
      }
      to_id = register_config(std::move(succ), probe.id, std::move(succ_sleep));
    }
    if (options.record_graph) {
      result.graph.edges.push_back(StateGraph::Edge{from_id, to_id, fired.stmt_id, fired.kind});
    }
  }

  recorder.merge_into(result);
  finish_explore(result, counters,
                 {visited.memory_bytes(), visited.size(), visited.collisions(), frontier_peak_bytes},
                 cow0);
  return result;
}

ExploreResult explore(const sem::LoweredProgram& program, const ExploreOptions& options) {
  if (options.threads > 1) return parallel_explore(program, options);
  return sequential_explore(program, options);
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
