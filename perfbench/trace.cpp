#include "perfbench/trace.h"

#include <malloc.h>

#include <algorithm>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>

#include "perfbench/jobs.h"
#include "src/absdom/interval.h"
#include "src/absem/absexplore.h"
#include "src/absem/tmod.h"
#include "src/analysis/deadstore.h"
#include "src/analysis/lockset.h"
#include "src/analysis/mhp.h"
#include "src/analysis/racecand.h"
#include "src/analysis/staticmhp.h"
#include "src/explore/staticinfo.h"
#include "src/explore/stubborn.h"
#include "src/explore/visited.h"
#include "src/explore/witness.h"
#include "src/sem/program.h"
#include "src/sem/step.h"
#include "src/support/telemetry.h"

namespace perfbench {

namespace {

namespace tel = copar::telemetry;
using copar::sem::LoweredProgram;

/// Heap bytes in use (glibc), for the growth of one stage's live data.
std::uint64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Everything the traced pass accumulates; turned into metrics at the end.
struct Totals {
  // lang
  double compile_ms = 0;
  double source_kb = 0;
  // sem + explore, per-state replay
  std::uint64_t states = 0, applies = 0, stubborn_calls = 0;
  std::uint64_t decode_ns = 0, apply_ns = 0, fingerprint_ns = 0, stubborn_ns = 0,
                visited_ns = 0, canon_bytes = 0;
  // explore engine, from the runs with phase timers on
  std::uint64_t configs = 0, transitions = 0, cow_copies = 0;
  double engine_ms = 0;
  std::uint64_t expansion_ns = 0, stubborn_phase_ns = 0, canonicalize_ns = 0;
  std::uint64_t stubborn_steps = 0, reduced_steps = 0, proviso_full = 0;
  std::uint64_t visited_bytes = 0, visited_configs = 0, frontier_peak_bytes = 0;
  // explore parallel
  std::uint64_t seq_configs = 0, par_configs = 0;
  std::uint64_t busy_ns = 0, steals = 0, steal_misses = 0, contention = 0;
  double par_engine_ms = 0;
  // check stages, replayed
  std::uint64_t witness_searches = 0, witness_configs = 0, witness_budget_exhausted = 0;
  std::uint64_t witness_jobs = 0, static_info_builds = 0;
  double witness_over_space = 0;  // summed over witness_jobs
  double witness_ms = 0, concrete_ms = 0;
  double abstract_ms = 0, tmod_ms = 0, static_tier_ms = 0, dead_store_ms = 0;
  std::uint64_t abstract_states = 0, abstract_store_peak = 0;
  std::uint64_t tmod_rounds = 0, tmod_facts = 0;
  std::uint64_t pairs_total = 0, pruned = 0, candidates = 0;
  double run_ms = 0, unattributed_ms = 0, render_ms = 0;
  std::uint64_t diagnostics = 0;
  // support
  double verb_off_ms = 0, verb_on_ms = 0;
  // outcomes
  std::uint64_t jobs = 0, failed = 0, undecided = 0;
};

/// Replays the first kReplayStates states of a stubborn DFS through the
/// public per-state calls, timing each call.
void replay_states(const LoweredProgram& prog, Totals& t) {
  namespace sem = copar::sem;
  namespace ex = copar::explore;
  const ex::StaticInfo info(prog);
  ex::VisitedSet visited(false);
  std::vector<sem::Configuration> stack;
  sem::Configuration init = sem::Configuration::initial(prog);
  (void)visited.insert(init);
  stack.push_back(std::move(init));
  std::size_t expanded = 0;
  while (!stack.empty() && expanded < kReplayStates) {
    const sem::Configuration cfg = std::move(stack.back());
    stack.pop_back();
    ++expanded;
    std::uint64_t t0 = now_ns();
    const std::vector<sem::ActionInfo> infos = sem::all_action_infos(cfg);
    t.decode_ns += now_ns() - t0;
    t.canon_bytes += cfg.canonical_key().size();
    ++t.states;

    std::vector<sem::Pid> expand;
    for (const sem::ActionInfo& a : infos) {
      if (a.enabled) expand.push_back(a.pid);
    }
    if (expand.size() > 1) {
      t0 = now_ns();
      const ex::StubbornChoice choice = ex::stubborn_set(cfg, infos, info);
      t.stubborn_ns += now_ns() - t0;
      ++t.stubborn_calls;
      expand = choice.expand;
    }
    for (const sem::Pid pid : expand) {
      const auto it = std::find_if(infos.begin(), infos.end(),
                                   [pid](const sem::ActionInfo& a) { return a.pid == pid; });
      t0 = now_ns();
      sem::Configuration succ = sem::apply_action(cfg, *it);
      const std::uint64_t t1 = now_ns();
      const copar::support::Fingerprint fp = succ.canonical_fingerprint();
      const std::uint64_t t2 = now_ns();
      const ex::VisitedSet::Probe probe = visited.insert_prehashed(fp, nullptr);
      const std::uint64_t t3 = now_ns();
      t.apply_ns += t1 - t0;
      t.fingerprint_ns += t2 - t1;
      t.visited_ns += t3 - t2;
      ++t.applies;
      if (probe.inserted) stack.push_back(std::move(succ));
    }
  }
}

/// The counters a check reports, from the real call or from the replay.
struct CheckCounters {
  std::uint64_t candidates = 0, confirmed = 0, refuted = 0, budget_exhausted = 0;
  std::uint64_t configs_explored = 0, abstract_states = 0;
  friend bool operator==(const CheckCounters&, const CheckCounters&) = default;
};

CheckCounters counters_of(const copar::check::CheckSummary& s) {
  return {s.stats.candidates, s.stats.confirmed,        s.stats.refuted,
          s.stats.budget_exhausted, s.stats.configs_explored, s.abstract_states};
}

std::string describe(const CheckCounters& c) {
  std::ostringstream os;
  os << "candidates=" << c.candidates << " confirmed=" << c.confirmed
     << " refuted=" << c.refuted << " budget_exhausted=" << c.budget_exhausted
     << " configs_explored=" << c.configs_explored << " abstract_states=" << c.abstract_states;
  return os.str();
}

/// The co-enabledness predicate run_checks gives each race search: a state
/// where both statements are enabled (two instances for a self-pair).
std::function<bool(const copar::sem::Configuration&)> both_enabled(std::uint32_t s1,
                                                                   std::uint32_t s2) {
  return [s1, s2](const copar::sem::Configuration& cfg) {
    int n1 = 0;
    int n2 = 0;
    for (const copar::sem::ActionInfo& info : copar::sem::all_action_infos(cfg)) {
      if (!info.enabled || info.stmt_id == copar::sem::kNoStmt) continue;
      if (info.stmt_id == s1) ++n1;
      if (info.stmt_id == s2) ++n2;
    }
    return s1 == s2 ? n1 >= 2 : (n1 >= 1 && n2 >= 1);
  };
}

/// The static race tier as run_checks builds it.
struct StaticTier {
  copar::explore::StaticInfo info;
  copar::analysis::StaticParallelism par;
  copar::analysis::LockSets locks;
  copar::analysis::CandidateReport cands;

  explicit StaticTier(const LoweredProgram& prog)
      : info(prog),
        par(prog, info),
        locks(prog, info),
        cands(copar::analysis::race_candidates(prog, info, par, locks)) {}
};

/// Replays `check --tier auto` stage by stage; returns the counters and the
/// summed stage time.
CheckCounters replay_auto(const LoweredProgram& prog, const copar::check::CheckOptions& opts,
                          Totals& t, double& stages_ms) {
  namespace ex = copar::explore;
  CheckCounters c;

  std::uint64_t t0 = now_ns();
  const std::uint64_t heap0 = heap_in_use();
  copar::absem::AbsOptions aopts;
  aopts.max_states = opts.abs_max_states;
  copar::absem::AbsExplorer<copar::absdom::Interval> abs_engine(prog, aopts);
  const copar::absem::AbsResult<copar::absdom::Interval> abs = abs_engine.run();
  const std::uint64_t heap1 = heap_in_use();
  double ms = ms_since(t0);
  t.abstract_ms += ms;
  stages_ms += ms;
  t.abstract_store_peak = std::max(t.abstract_store_peak, heap1 > heap0 ? heap1 - heap0 : 0);
  c.abstract_states = abs.num_states;

  t0 = now_ns();
  const StaticTier st(prog);
  ms = ms_since(t0);
  t.static_tier_ms += ms;
  stages_ms += ms;
  c.candidates = st.cands.candidates.size();
  t.pairs_total += st.cands.pairs_total;
  t.pruned += st.cands.pruned_mhp + st.cands.pruned_lockset;

  const bool explore_now = abs.truncated || !abs.may_faults.empty() ||
                           !abs.may_fail_asserts.empty() || !st.locks.deadlock_free() ||
                           !st.locks.unlocks_safe();
  std::optional<ex::ExploreResult> conc;
  if (explore_now) {
    ex::ExploreOptions eopts;
    eopts.max_configs = opts.max_configs;
    t0 = now_ns();
    conc = ex::explore(prog, eopts);
    ms = ms_since(t0);
    t.concrete_ms += ms;
    stages_ms += ms;
    c.configs_explored += conc->num_configs;
  }

  auto search = [&](const ex::WitnessQuery& q, ex::WitnessStats& ws) {
    const std::uint64_t s0 = now_ns();
    std::optional<ex::Witness> w = ex::find_witness(prog, q, &ws);
    const double search_ms = ms_since(s0);
    t.witness_ms += search_ms;
    stages_ms += search_ms;
    ++t.witness_searches;
    t.witness_configs += ws.configs;
    c.configs_explored += ws.configs;
    return w;
  };
  std::size_t witness_budget = opts.witnesses ? opts.max_witnesses : 0;
  auto try_witness = [&](ex::WitnessQuery q) {
    if (witness_budget == 0) return;
    --witness_budget;
    q.explore.max_configs = opts.max_configs;
    ex::WitnessStats ws;
    (void)search(q, ws);
  };

  if (conc) {
    for (const auto& fault : conc->faults) {
      ex::WitnessQuery q;
      q.want_fault = fault.first;
      try_witness(std::move(q));
    }
  }
  for (const copar::analysis::RaceCandidate& cand : st.cands.candidates) {
    ex::WitnessQuery q;
    q.reach_predicate = both_enabled(cand.stmt1, cand.stmt2);
    q.explore.max_configs = opts.pair_budget;
    ex::WitnessStats ws;
    const bool found = search(q, ws).has_value();
    if (found) {
      ++c.confirmed;
    } else if (ws.truncated) {
      ++c.budget_exhausted;
    } else {
      ++c.refuted;
    }
  }
  if (conc && conc->deadlock_found) {
    ex::WitnessQuery q;
    q.want_deadlock = true;
    try_witness(std::move(q));
  }
  if (conc) {
    for (const std::uint32_t stmt : conc->violations) {
      ex::WitnessQuery q;
      q.want_violation = stmt;
      try_witness(std::move(q));
    }
  }
  t.witness_budget_exhausted += c.budget_exhausted;

  // Witness searches scan configurations of a space the full exploration
  // covers once: measure that space (outside the stage times).
  const std::uint64_t scanned = c.configs_explored - (conc ? conc->num_configs : 0);
  if (scanned > 0) {
    std::uint64_t space = 0;
    if (conc) {
      space = conc->num_configs;
    } else {
      ex::ExploreOptions full;
      full.max_configs = opts.max_configs;
      space = ex::explore(prog, full).num_configs;
    }
    ++t.witness_jobs;
    t.witness_over_space += ratio(static_cast<double>(scanned), static_cast<double>(space));
  }
  return c;
}

/// Replays `check --tier tmod --no-witness` stage by stage.
CheckCounters replay_tmod(const LoweredProgram& prog, Totals& t, double& stages_ms) {
  CheckCounters c;
  std::uint64_t t0 = now_ns();
  const StaticTier st(prog);
  const copar::analysis::Mhp mhp = st.par.stmt_mhp();
  double ms = ms_since(t0);
  t.static_tier_ms += ms;
  stages_ms += ms;

  copar::absem::TmodOptions topts;
  if (st.locks.pristine()) {
    topts.must_locks = [&st](std::uint32_t p, std::uint32_t pc) -> std::uint64_t {
      return st.locks.live(p, pc) ? st.locks.held(p, pc) : 0;
    };
  }
  topts.self_parallel = [&st](std::uint32_t p) { return st.par.parallel_procs(p, p); };
  topts.parallel = [&mhp](std::uint32_t s, std::uint32_t u) { return mhp.parallel(s, u); };
  t0 = now_ns();
  const copar::absem::TmodResult<copar::absdom::Interval> tm =
      copar::absem::tmod_analyze<copar::absdom::Interval>(prog, topts);
  ms = ms_since(t0);
  t.tmod_ms += ms;
  stages_ms += ms;
  t.tmod_rounds += tm.rounds;
  t.tmod_facts += tm.interference_facts;
  c.candidates = tm.races.races.size();
  t.pairs_total += tm.races.pairs_total;
  t.pruned += tm.races.pruned_mhp + tm.races.pruned_lockset;
  return c;
}

/// Runs the job's command once more with the phase timers on, reading the
/// timers and the engines' exported counters.
void timers_on_run(Workload w, const Job& job, Totals& t,
                   std::optional<copar::check::CheckSummary>& summary) {
  tel::Telemetry& tm = tel::Telemetry::global();
  tm.reset();
  tm.enable_metrics(true);
  const std::uint64_t t0 = now_ns();
  const std::unique_ptr<copar::CompiledProgram> prog = copar::compile(job.source);
  if (is_explore(w)) {
    const std::uint64_t e0 = now_ns();
    const copar::explore::ExploreResult r =
        copar::explore::explore(*prog->lowered, explore_options(w));
    const double engine_ms = ms_since(e0);
    const copar::StatRegistry& s = r.stats;
    t.configs += r.num_configs;
    t.transitions += r.num_transitions;
    t.engine_ms += engine_ms;
    t.cow_copies += s.gauge("cow.objects_copied");
    t.stubborn_steps += s.get("stubborn_steps");
    t.reduced_steps += s.get("stubborn_reduced_steps");
    t.proviso_full += s.get("proviso_full_expansions");
    t.visited_bytes += s.gauge("visited_bytes");
    t.visited_configs += s.gauge("visited_configs");
    t.frontier_peak_bytes = std::max(t.frontier_peak_bytes, s.gauge("frontier_peak_bytes"));
    if (w == Workload::ExplorePar) {
      t.par_configs += r.num_configs;
      t.par_engine_ms += engine_ms;
      const auto busy = s.times_ns().find("workers.sum");
      if (busy != s.times_ns().end()) t.busy_ns += busy->second;
      t.steals += s.get("steals");
      t.steal_misses += s.get("steal_misses");
      t.contention += s.get("frontier_contention");
    }
  } else {
    copar::DiagnosticEngine findings;
    summary = copar::check::run_checks(*prog, findings, check_options(w));
    std::ostringstream text;
    findings.render_text(text, job.source, job.name);
    t.configs += summary->stats.configs_explored;
  }
  t.verb_on_ms += ms_since(t0);
  for (const tel::Telemetry::TrackStats& track : tm.tracks()) {
    auto at = [&track](tel::Phase p) { return track.phase_ns[static_cast<std::size_t>(p)]; };
    t.expansion_ns += at(tel::Phase::Expansion);
    t.stubborn_phase_ns += at(tel::Phase::Stubborn);
    t.canonicalize_ns += at(tel::Phase::Canonicalize);
    t.static_info_builds +=
        track.phase_counts[static_cast<std::size_t>(tel::Phase::StaticInfo)];
  }
  tm.enable_metrics(false);
  tm.reset();
}

void trace_job(Workload w, const Job& job, Totals& t) {
  ++t.jobs;
  const Outcome off = run_job(w, job);
  if (off.failed) {
    ++t.failed;
    std::cerr << "perfbench: " << job.name << ": " << off.why << "\n";
    return;
  }
  if (off.undecided) ++t.undecided;
  t.verb_off_ms += off.total_ms();
  t.compile_ms += off.compile_ms;
  t.source_kb += static_cast<double>(job.source.size()) / 1024.0;

  std::optional<copar::check::CheckSummary> summary;
  timers_on_run(w, job, t, summary);

  const std::unique_ptr<copar::CompiledProgram> prog = copar::compile(job.source);
  const LoweredProgram& lowered = *prog->lowered;
  if (is_explore(w)) {
    replay_states(lowered, t);
    if (w == Workload::ExplorePar) {
      t.seq_configs +=
          copar::explore::explore(lowered, explore_options(Workload::ExploreSeq)).num_configs;
    }
    return;
  }

  t.run_ms += off.verb_ms;
  t.render_ms += off.render_ms;
  t.diagnostics += off.diagnostics;
  double stages_ms = 0;
  const CheckCounters replay = w == Workload::CheckTmod
                                   ? replay_tmod(lowered, t, stages_ms)
                                   : replay_auto(lowered, check_options(w), t, stages_ms);
  {
    const std::uint64_t t0 = now_ns();
    (void)copar::analysis::find_dead_stores(lowered);
    const double ms = ms_since(t0);
    t.dead_store_ms += ms;
    stages_ms += ms;
  }
  t.unattributed_ms += off.verb_ms - stages_ms;
  t.abstract_states += replay.abstract_states;
  t.candidates += replay.candidates;
  const CheckCounters real = counters_of(*summary);
  if (!(replay == real)) {
    ++t.failed;
    std::cerr << "perfbench: " << job.name << ": stage replay diverges from run_checks\n"
              << "  run_checks: " << describe(real) << "\n  replay:     " << describe(replay)
              << "\n";
  }
}

}  // namespace

RunReport traced_run(Workload w, const std::vector<Job>& jobs) {
  Totals t;
  for (const Job& job : jobs) {
    try {
      trace_job(w, job, t);
    } catch (const std::exception& e) {
      ++t.failed;
      std::cerr << "perfbench: " << job.name << ": threw: " << e.what() << "\n";
    }
  }

  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double ns_ms = 1e-6;
  RunReport r;
  r.attempted = t.jobs;
  r.failed = t.failed;
  r.metrics = {
      {"lang.compile_ms", t.compile_ms, "ms"},
      {"lang.source_kb", t.source_kb, "KB"},
      {"sem.decode_ns", ratio(n(t.decode_ns), n(t.states)), "ns"},
      {"sem.apply_ns", ratio(n(t.apply_ns), n(t.applies)), "ns"},
      {"sem.fingerprint_ns", ratio(n(t.fingerprint_ns), n(t.applies)), "ns"},
      {"sem.canon_bytes", ratio(n(t.canon_bytes), n(t.states)), "B"},
      {"sem.cow_copies_per_transition", ratio(n(t.cow_copies), n(t.transitions)), "ratio"},
      {"explore.configs", n(t.configs), "count"},
      {"explore.transitions", n(t.transitions), "count"},
      {"explore.configs_per_s",
       ratio(n(t.configs), (t.engine_ms + t.concrete_ms + t.witness_ms) / 1e3), "1/s"},
      {"explore.stubborn_ns", ratio(n(t.stubborn_ns), n(t.stubborn_calls)), "ns"},
      {"explore.visited_ns", ratio(n(t.visited_ns), n(t.applies)), "ns"},
      {"explore.expansion_ms", n(t.expansion_ns) * ns_ms, "ms"},
      {"explore.stubborn_ms", n(t.stubborn_phase_ns) * ns_ms, "ms"},
      {"explore.canonicalize_ms", n(t.canonicalize_ns) * ns_ms, "ms"},
      {"explore.reduced_frac", ratio(n(t.reduced_steps), n(t.stubborn_steps)), "ratio"},
      {"explore.visited_bytes_per_config", ratio(n(t.visited_bytes), n(t.visited_configs)), "B"},
      {"explore.frontier_peak_mb", n(t.frontier_peak_bytes) / 1e6, "MB"},
      {"explore.concrete_ms", t.concrete_ms, "ms"},
      {"explore.proviso_full_frac", ratio(n(t.proviso_full), n(t.reduced_steps)), "ratio"},
      {"explore.par_over_seq_configs", ratio(n(t.par_configs), n(t.seq_configs)), "ratio"},
      {"explore.par_busy_frac", ratio(n(t.busy_ns) * ns_ms, kParThreads * t.par_engine_ms),
       "ratio"},
      {"explore.steals", n(t.steals), "count"},
      {"explore.steal_misses", n(t.steal_misses), "count"},
      {"explore.frontier_contention", n(t.contention), "count"},
      {"explore.witness_searches", n(t.witness_searches), "count"},
      {"explore.witness_ms", t.witness_ms, "ms"},
      {"explore.witness_configs", n(t.witness_configs), "count"},
      {"explore.witness_over_space", ratio(t.witness_over_space, n(t.witness_jobs)), "ratio"},
      {"explore.witness_budget_exhausted", n(t.witness_budget_exhausted), "count"},
      {"explore.static_info_builds", n(t.static_info_builds), "count"},
      {"absem.abstract_ms", t.abstract_ms, "ms"},
      {"absem.abstract_states", n(t.abstract_states), "count"},
      {"absem.abstract_store_mb", n(t.abstract_store_peak) / 1e6, "MB"},
      {"absem.tmod_ms", t.tmod_ms, "ms"},
      {"absem.tmod_rounds", n(t.tmod_rounds), "count"},
      {"absem.tmod_interference_facts", n(t.tmod_facts), "count"},
      {"analysis.static_tier_ms", t.static_tier_ms, "ms"},
      {"analysis.dead_store_ms", t.dead_store_ms, "ms"},
      {"analysis.pairs_total", n(t.pairs_total), "count"},
      {"analysis.pruned_frac", ratio(n(t.pruned), n(t.pairs_total)), "ratio"},
      {"analysis.candidates", n(t.candidates), "count"},
      {"check.run_ms", t.run_ms, "ms"},
      {"check.unattributed_ms", t.unattributed_ms, "ms"},
      {"check.render_ms", t.render_ms, "ms"},
      {"check.diagnostics", n(t.diagnostics), "count"},
      {"support.phase_timer_overhead_frac", ratio(t.verb_on_ms, t.verb_off_ms) - 1, "ratio"},
      {"failed_frac", ratio(n(t.failed), n(t.jobs)), "ratio"},
      {"undecided_frac", ratio(n(t.undecided), n(t.jobs)), "ratio"},
  };
  return r;
}

}  // namespace perfbench
