#include "src/explore/witness.h"

#include <algorithm>
#include <numeric>
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

bool has_reach(const WitnessQuery& q) {
  return q.reach_predicate || q.co_enabled.first != sem::kNoStmt;
}

/// Whether `cfg` is a reachability match: its enabled actions co-enable
/// q.co_enabled, or it satisfies q.reach_predicate. `enabled_stmts` holds
/// the statement of every enabled action of `cfg`, sorted.
bool reaches(const WitnessQuery& q, const Configuration& cfg,
             const std::vector<std::uint32_t>& enabled_stmts) {
  if (q.co_enabled.first != sem::kNoStmt) {
    const auto enabled = [&](std::uint32_t stmt) {
      const auto [lo, hi] = std::equal_range(enabled_stmts.begin(), enabled_stmts.end(), stmt);
      return hi - lo;
    };
    const auto [s1, s2] = q.co_enabled;
    if (s1 == s2 ? enabled(s1) >= 2 : (enabled(s1) >= 1 && enabled(s2) >= 1)) return true;
  }
  return q.reach_predicate && q.reach_predicate(cfg);
}

/// Whether the terminal `cfg` matches the query's terminal criteria.
bool matches(const WitnessQuery& q, const Configuration& cfg, bool deadlock) {
  if (has_reach(q) && !q.want_deadlock && q.want_violation == sem::kNoStmt &&
      q.want_fault == sem::kNoStmt && !q.predicate) {
    return false;  // purely a reachability query: only a reachability match satisfies it
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

std::vector<WitnessAnswer> find_witnesses(const sem::LoweredProgram& prog,
                                          std::span<const WitnessQuery> queries,
                                          const StaticInfo* static_info) {
  std::vector<WitnessAnswer> answers(queries.size());
  if (queries.empty()) return answers;
  const Reduction reduction = queries.front().explore.reduction;
  for (const WitnessQuery& q : queries) {
    require(q.explore.reduction == reduction, "witness: one search needs one reduction");
  }
  std::optional<StaticInfo> own_info;
  if (static_info == nullptr) static_info = &own_info.emplace(prog);

  constexpr std::uint32_t kRoot = 0xffffffffu;
  // One visited configuration and the step that first reached it; the
  // step's control point is rendered only for the schedules returned.
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

  // The undecided queries, in query order.
  std::vector<std::uint32_t> live(queries.size());
  std::iota(live.begin(), live.end(), 0u);
  std::vector<std::uint32_t> enabled_stmts;

  telemetry::ScopedPhase phase_expansion(telemetry::Phase::Expansion);
  (void)push(Configuration::initial(prog), kRoot, ActionInfo{});

  while (!live.empty()) {
    const auto popped = work.pop();
    if (!popped) break;
    const std::uint32_t id = *popped;
    telemetry::Telemetry::global().maybe_progress(nodes.size(), nodes.size() - work.size(),
                                                 work.size());
    // A query is charged what the search has visited when it is decided.
    const std::uint64_t seen = nodes.size();
    std::erase_if(live, [&](std::uint32_t qi) {
      if (seen <= queries[qi].explore.max_configs) return false;
      answers[qi].stats = WitnessStats{seen, /*truncated=*/true};
      return true;
    });
    if (live.empty()) break;

    // Snapshot — nodes may reallocate during expansion.
    const Configuration cfg = nodes[id].cfg;
    const Expansion e = expand_state(cfg, *static_info, reduction, counters);
    enabled_stmts.clear();
    for (const ActionInfo& info : e.infos) {
      if (info.enabled && info.stmt_id != sem::kNoStmt) enabled_stmts.push_back(info.stmt_id);
    }
    std::sort(enabled_stmts.begin(), enabled_stmts.end());
    const bool terminal = e.enabled.empty();
    const bool deadlock = terminal && cfg.num_live() > 0;
    std::erase_if(live, [&](std::uint32_t qi) {
      const WitnessQuery& q = queries[qi];
      if (!reaches(q, cfg, enabled_stmts) && !(terminal && matches(q, cfg, deadlock))) {
        return false;
      }
      answers[qi] = WitnessAnswer{build(id), WitnessStats{seen, /*truncated=*/false}};
      return true;
    });
    if (live.empty()) break;

    auto fire = [&](Pid pid) -> bool {
      const ActionInfo& info = e.info(pid);
      return push(
          core_step(cfg, pid, *static_info, /*coarsen=*/false, no_recording, counters, &info),
          id, info);
    };
    // BFS has no stack, so the stack proviso cannot apply; the core's
    // insertion proviso (shared with the parallel engine) keeps the
    // reduced search complete on cyclic spaces.
    (void)fire_with_insertion_proviso(e.enabled, e.fire, e.reduced, /*proviso_on=*/true, fire);
  }
  // The space ran out: every query still undecided is refuted.
  for (const std::uint32_t qi : live) answers[qi].stats.configs = nodes.size();
  return answers;
}

std::optional<Witness> find_witness(const sem::LoweredProgram& prog,
                                    const WitnessQuery& query, WitnessStats* stats) {
  WitnessAnswer a = std::move(find_witnesses(prog, std::span(&query, 1)).front());
  if (stats != nullptr) *stats = a.stats;
  return std::move(a.witness);
}

std::optional<Witness> find_deadlock(const sem::LoweredProgram& prog) {
  WitnessQuery q;
  q.want_deadlock = true;
  return find_witness(prog, q);
}

}  // namespace copar::explore
