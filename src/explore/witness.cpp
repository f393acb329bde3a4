#include "src/explore/witness.h"

#include <algorithm>
#include <sstream>

#include "src/explore/core.h"
#include "src/explore/frontier.h"
#include "src/explore/proviso.h"
#include "src/explore/visited.h"
#include "src/support/telemetry.h"

namespace copar::explore {

using sem::ActionInfo;
using sem::Configuration;
using sem::Pid;

std::string Witness::to_string(const sem::LoweredProgram& prog) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const WitnessStep& s = steps[i];
    os << i + 1 << ". p" << s.pid << ": " << sem::action_kind_name(s.kind);
    if (!s.point.empty()) os << " at " << s.point;
    os << '\n';
  }
  os << "reached:\n" << terminal.to_string();
  (void)prog;
  return os.str();
}

namespace {

bool matches(const WitnessQuery& q, const Configuration& cfg, bool deadlock) {
  if (q.reach_predicate && !q.want_deadlock && q.want_violation == sem::kNoStmt &&
      q.want_fault == sem::kNoStmt && !q.predicate) {
    return false;  // purely a reachability query: only reach_predicate satisfies it
  }
  if (q.want_deadlock && !deadlock) return false;
  if (q.want_violation != sem::kNoStmt || q.want_fault != sem::kNoStmt) {
    bool ok = false;
    if (q.want_violation != sem::kNoStmt) ok = ok || cfg.violations.contains(q.want_violation);
    if (q.want_fault != sem::kNoStmt) {
      for (const auto& [stmt, kind] : cfg.faults) ok = ok || stmt == q.want_fault;
    }
    if (!ok) return false;
  }
  if (q.predicate && !q.predicate(cfg)) return false;
  return true;
}

}  // namespace

std::optional<Witness> find_witness(const sem::LoweredProgram& prog,
                                    const WitnessQuery& query, WitnessStats* stats) {
  const StaticInfo static_info(prog);
  WitnessStats local;
  if (stats == nullptr) stats = &local;

  constexpr std::uint32_t kRoot = 0xffffffffu;
  // One visited configuration and the step that first reached it; the
  // step's control point is rendered only for the schedule returned.
  struct Node {
    Configuration cfg;
    std::uint32_t parent = kRoot;
    Pid pid = 0;
    std::uint32_t stmt = sem::kNoStmt;
    sem::ActionKind kind = sem::ActionKind::None;
    std::uint32_t proc = 0;
    std::uint32_t pc = 0;
  };
  std::vector<Node> nodes;
  VisitedSet visited(/*exact_keys=*/false);
  FifoFrontier<std::uint32_t> work;  // BFS: shortest witnesses
  Recorder no_recording;
  ExploreCounters counters;  // a search reports only WitnessStats

  auto push = [&](Configuration cfg, std::uint32_t parent, const ActionInfo& via) -> bool {
    telemetry::ScopedPhase phase_canon(telemetry::Phase::Canonicalize);
    const VisitedSet::Probe probe = visited.insert(cfg);
    if (!probe.inserted) return false;
    require(probe.id == nodes.size(), "witness: visited-set ids must be dense");
    nodes.push_back(Node{std::move(cfg), parent, via.pid, via.stmt_id, via.kind, via.proc, via.pc});
    work.push(probe.id);
    return true;
  };

  auto build = [&](std::uint32_t id) {
    Witness w;
    w.terminal = nodes[id].cfg;
    for (std::uint32_t cur = id; nodes[cur].parent != kRoot; cur = nodes[cur].parent) {
      const Node& n = nodes[cur];
      w.steps.push_back(WitnessStep{n.pid, n.stmt, n.kind, prog.describe_point(n.proc, n.pc)});
    }
    std::reverse(w.steps.begin(), w.steps.end());
    return w;
  };

  telemetry::ScopedPhase phase_expansion(telemetry::Phase::Expansion);
  (void)push(Configuration::initial(prog), kRoot, ActionInfo{});

  while (const auto popped = work.pop()) {
    const std::uint32_t id = *popped;
    telemetry::Telemetry::global().maybe_progress(nodes.size(), nodes.size() - work.size(),
                                                 work.size());
    stats->configs = nodes.size();
    if (nodes.size() > query.explore.max_configs) {
      stats->truncated = true;
      return std::nullopt;
    }

    // Snapshot — nodes may reallocate during expansion.
    const Configuration cfg = nodes[id].cfg;
    if (query.reach_predicate && query.reach_predicate(cfg)) return build(id);
    const Expansion e = expand_state(cfg, static_info, query.explore.reduction, counters);
    if (e.enabled.empty()) {
      const bool deadlock = cfg.num_live() > 0;
      if (matches(query, cfg, deadlock)) return build(id);
      continue;
    }
    auto fire = [&](Pid pid) -> bool {
      const ActionInfo& info = e.info(pid);
      return push(core_step(cfg, pid, static_info, /*coarsen=*/false, no_recording, counters, &info),
                  id, info);
    };
    // BFS has no stack, so the stack proviso cannot apply; the core's
    // insertion proviso (shared with the parallel engine) keeps the
    // reduced search complete on cyclic spaces.
    (void)fire_with_insertion_proviso(e.enabled, e.fire, e.reduced, /*proviso_on=*/true, fire);
  }
  stats->configs = nodes.size();
  return std::nullopt;
}

std::optional<Witness> find_deadlock(const sem::LoweredProgram& prog) {
  WitnessQuery q;
  q.want_deadlock = true;
  return find_witness(prog, q);
}

}  // namespace copar::explore
