#include "src/explore/witness.h"

#include <sstream>

#include "src/explore/frontier.h"
#include "src/explore/proviso.h"
#include "src/explore/stubborn.h"
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
  } else if (!q.want_deadlock && !q.predicate) {
    // Nothing requested: any terminal matches.
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

  struct Node {
    Configuration cfg;
    std::uint32_t parent = 0xffffffffu;
    WitnessStep via;
  };
  std::vector<Node> nodes;
  VisitedSet visited(query.explore.exact_keys);
  FifoFrontier<std::uint32_t> work;  // BFS: shortest witnesses

  auto push = [&](Configuration cfg, std::uint32_t parent, WitnessStep via)
      -> std::optional<std::uint32_t> {
    telemetry::ScopedPhase phase_canon(telemetry::Phase::Canonicalize);
    const VisitedSet::Probe probe = visited.insert(cfg);
    if (!probe.inserted) return std::nullopt;
    require(probe.id == nodes.size(), "witness: visited-set ids must be dense");
    nodes.push_back(Node{std::move(cfg), parent, std::move(via)});
    work.push(probe.id);
    return probe.id;
  };

  auto build = [&](std::uint32_t id) {
    Witness w;
    w.terminal = nodes[id].cfg;
    std::vector<WitnessStep> rev;
    for (std::uint32_t cur = id; nodes[cur].parent != 0xffffffffu; cur = nodes[cur].parent) {
      rev.push_back(nodes[cur].via);
    }
    w.steps.assign(rev.rbegin(), rev.rend());
    return w;
  };

  telemetry::ScopedPhase phase_expansion(telemetry::Phase::Expansion);
  (void)push(Configuration::initial(prog), 0xffffffffu, WitnessStep{});

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
    const std::vector<ActionInfo> infos = sem::all_action_infos(cfg);
    std::vector<Pid> enabled;
    for (const ActionInfo& info : infos) {
      if (info.enabled) enabled.push_back(info.pid);
    }
    if (enabled.empty()) {
      const bool deadlock = cfg.num_live() > 0;
      if (matches(query, cfg, deadlock)) return build(id);
      continue;
    }
    std::vector<Pid> expansion = enabled;
    bool reduced = false;
    if (query.explore.reduction == Reduction::Stubborn && enabled.size() > 1) {
      const StubbornChoice choice = [&] {
        telemetry::ScopedPhase phase_stub(telemetry::Phase::Stubborn);
        return stubborn_set(cfg, infos, static_info);
      }();
      reduced = !choice.is_full;
      expansion = choice.expand;
    }
    auto fire = [&](Pid pid) -> bool {
      const ActionInfo info = sem::action_info(cfg, pid);
      WitnessStep step;
      step.pid = pid;
      step.stmt = info.stmt_id;
      step.kind = info.kind;
      step.point = prog.describe_point(info.proc, info.pc);
      Configuration succ = sem::apply_action(cfg, info);
      return push(std::move(succ), id, std::move(step)).has_value();
    };
    // BFS has no stack, so the stack proviso cannot apply; the core's
    // insertion proviso (shared with the parallel engine) keeps the
    // reduced search complete on cyclic spaces.
    (void)fire_with_insertion_proviso(enabled, expansion, reduced, /*proviso_on=*/true,
                                      fire);
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
