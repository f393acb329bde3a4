#include "src/petri/reach.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "src/support/hash.h"
#include "src/support/telemetry.h"

namespace copar::petri {

namespace {

struct MarkingHash {
  std::size_t operator()(const Marking& m) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t v : m) h = hash_combine(h, v);
    return static_cast<std::size_t>(h);
  }
};

/// Closure from one enabled seed; returns transition ids in the set.
std::vector<TransId> closure_from(const PetriNet& net, const Marking& m, TransId seed) {
  std::vector<TransId> members = {seed};
  std::vector<bool> in_set(net.num_transitions(), false);
  in_set[seed] = true;
  std::size_t scan = 0;
  auto add = [&](TransId t) {
    if (!in_set[t]) {
      in_set[t] = true;
      members.push_back(t);
    }
  };
  while (scan < members.size()) {
    const TransId t = members[scan++];
    if (net.enabled(t, m)) {
      // Conflict rule: everything sharing an input place.
      for (PlaceId p : net.transition(t).pre) {
        for (TransId other : net.consumers(p)) add(other);
      }
    } else {
      // Enabling rule: one scarce input place's producers suffice. Choose
      // the place with the fewest producers (smaller closures).
      PlaceId best = 0;
      bool found = false;
      std::map<std::uint32_t, std::uint32_t> needed;
      for (PlaceId p : net.transition(t).pre) needed[p] += 1;
      for (const auto& [p, need] : needed) {
        if (m[p] >= need) continue;
        if (!found || net.producers(p).size() < net.producers(best).size()) {
          best = p;
          found = true;
        }
      }
      require(found, "petri closure: disabled transition with satisfied inputs");
      for (TransId producer : net.producers(best)) add(producer);
    }
  }
  return members;
}

}  // namespace

std::vector<TransId> stubborn_set(const PetriNet& net, const Marking& m) {
  std::vector<TransId> enabled;
  for (TransId t = 0; t < net.num_transitions(); ++t) {
    if (net.enabled(t, m)) enabled.push_back(t);
  }
  if (enabled.size() <= 1) return enabled;

  std::vector<TransId> best;
  std::size_t best_enabled = SIZE_MAX;
  for (TransId seed : enabled) {
    const std::vector<TransId> members = closure_from(net, m, seed);
    std::size_t n_enabled = 0;
    for (TransId t : members) {
      if (net.enabled(t, m)) ++n_enabled;
    }
    if (n_enabled < best_enabled) {
      best_enabled = n_enabled;
      best.clear();
      for (TransId t : members) {
        if (net.enabled(t, m)) best.push_back(t);
      }
      if (best_enabled == 1) break;
    }
  }
  std::sort(best.begin(), best.end());
  return best;
}

ReachResult explore(const PetriNet& net, const ReachOptions& options) {
  ReachResult result;
  std::uint64_t proviso_full = 0;
  telemetry::Telemetry& tel = telemetry::Telemetry::global();
  telemetry::ScopedPhase phase_expansion(telemetry::Phase::Expansion);
  std::unordered_map<Marking, std::uint32_t, MarkingHash> visited;
  std::vector<char> on_stack;

  struct Entry {
    Marking m;
    std::uint32_t id;
    std::vector<TransId> expand;
    std::size_t next = 0;
    bool expanded_full = false;
  };
  std::vector<Entry> stack;

  auto all_enabled = [&](const Marking& m) {
    std::vector<TransId> out;
    for (TransId t = 0; t < net.num_transitions(); ++t) {
      if (net.enabled(t, m)) out.push_back(t);
    }
    return out;
  };

  auto register_marking = [&](Marking m) -> std::uint32_t {
    const auto id = static_cast<std::uint32_t>(visited.size());
    on_stack.push_back(0);
    result.num_markings += 1;
    std::vector<TransId> expand;
    if (options.stubborn) {
      telemetry::ScopedPhase phase_stub(telemetry::Phase::Stubborn);
      expand = stubborn_set(net, m);
    } else {
      expand = all_enabled(m);
    }
    visited.emplace(m, id);
    if (expand.empty()) {
      result.deadlocks.insert(std::move(m));
      return id;
    }
    Entry e;
    e.m = std::move(m);
    e.id = id;
    e.expand = std::move(expand);
    on_stack[id] = 1;
    stack.push_back(std::move(e));
    return id;
  };

  (void)register_marking(net.initial_marking());

  while (!stack.empty()) {
    Entry& top = stack.back();
    if (top.next >= top.expand.size()) {
      on_stack[top.id] = 0;
      stack.pop_back();
      continue;
    }
    const TransId t = top.expand[top.next++];
    Marking succ = net.fire(t, top.m);
    result.num_edges += 1;
    tel.maybe_progress(result.num_markings, result.num_edges, stack.size());
    if (auto it = visited.find(succ); it != visited.end()) {
      // Stack proviso: a reduced expansion closing a cycle re-expands fully.
      if (options.stubborn && options.cycle_proviso && on_stack[it->second] != 0) {
        Entry& cur = stack.back();
        if (!cur.expanded_full) {
          cur.expanded_full = true;
          cur.expand = all_enabled(cur.m);
          cur.next = 0;
          proviso_full += 1;
        }
      }
      continue;
    }
    if (result.num_markings >= options.max_markings) {
      result.truncated = true;
      break;
    }
    (void)register_marking(std::move(succ));
  }

  result.stats.set("markings", result.num_markings);
  result.stats.set("edges", result.num_edges);
  result.stats.set("deadlocks", result.deadlocks.size());
  if (proviso_full != 0) result.stats.add("proviso_full_expansions", proviso_full);
  telemetry::Telemetry::global().publish_stats(result.stats);
  return result;
}

}  // namespace copar::petri
