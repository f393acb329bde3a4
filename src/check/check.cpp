#include "src/check/check.h"

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/absdom/flat.h"
#include "src/absdom/interval.h"
#include "src/absem/absexplore.h"
#include "src/absem/tmod.h"
#include "src/analysis/anomaly.h"
#include "src/analysis/common.h"
#include "src/analysis/deadstore.h"
#include "src/analysis/lockset.h"
#include "src/analysis/mhp.h"
#include "src/analysis/racecand.h"
#include "src/analysis/staticmhp.h"
#include "src/explore/explorer.h"
#include "src/explore/witness.h"
#include "src/sem/lockid.h"
#include "src/sem/step.h"
#include "src/support/stats.h"
#include "src/support/telemetry.h"

namespace copar::check {

namespace {

constexpr std::array<RuleInfo, 18> kCatalog = {{
    {"arity-mismatch", Severity::Error, "call with the wrong number of arguments",
     "The callee's parameter list does not match the argument count on some path."},
    {"assert-fail", Severity::Error, "assertion fails on some interleaving",
     "The concrete exploration found a schedule under which the asserted condition is false."},
    {"assert-may-fail", Severity::Warning, "assertion may fail (abstract)",
     "The abstract semantics cannot prove the assertion; the concrete exploration was "
     "truncated before confirming or refuting it."},
    {"bad-deref", Severity::Error, "dereference of a non-pointer value",
     "A `*p` or `p[i]` access where `p` holds an integer, boolean, or function."},
    {"bounds", Severity::Error, "indexed access outside the allocated object",
     "The index is negative or not below the allocation size on some path."},
    {"dead-store", Severity::Warning, "stored value is never observed",
     "No later read — in this thread or any concurrent one — can see the assigned value. "
     "Sound for cobegin programs: stores other threads may observe are kept."},
    {"deadlock", Severity::Error, "the program can deadlock",
     "Some interleaving leaves live processes with no enabled action (e.g. a lock cycle)."},
    {"div-zero", Severity::Error, "division by zero",
     "The right operand of `/` or `%` can be zero on some path."},
    {"negative-alloc", Severity::Error, "allocation with a negative size",
     "The size expression of `alloc` can be negative on some path."},
    {"not-a-function", Severity::Error, "call of a non-function value",
     "The callee expression does not evaluate to a function on some path."},
    {"null-deref", Severity::Error, "null pointer dereference",
     "A `*p` or `p[i]` access where `p` can be null on some path."},
    {"race", Severity::Error, "data race between concurrent statements",
     "Two statements that may run in parallel access the same location, at least one "
     "writing, with no synchronization ordering them."},
    {"race-guarded", Severity::Note, "conflicting accesses protected by a common lock",
     "The static tier proved the pair race-free: every path to both accesses holds the "
     "named lock, so they are mutually exclusive. Reported by --tier=static only."},
    {"syntax", Severity::Error, "lexical, syntactic, or resolution error",
     "The program does not parse or resolve; remaining checks did not run."},
    {"type-error", Severity::Error, "operands have incompatible runtime types",
     "An arithmetic or comparison operator meets a pointer/function operand it cannot "
     "combine."},
    {"uninit-read", Severity::Warning, "read of a variable before any write",
     "The read observes the implicit zero initialization on some path. Initialize the "
     "variable explicitly if the zero is intended."},
    {"unlock-not-held", Severity::Error, "unlock of a lock that is not held",
     "The unlocking process does not own the lock cell on some path."},
    {"unreachable", Severity::Warning, "statement is unreachable",
     "No abstract execution reaches this statement; it is dead code (or only reachable "
     "from dead code)."},
}};

std::string_view fault_phrase(sem::Fault f) {
  switch (f) {
    case sem::Fault::DerefNull: return "null pointer dereference";
    case sem::Fault::DerefNonPointer: return "dereference of a non-pointer value";
    case sem::Fault::OutOfBounds: return "indexed access outside the allocated object";
    case sem::Fault::TypeError: return "operands have incompatible runtime types";
    case sem::Fault::DivByZero: return "division by zero";
    case sem::Fault::NotAFunction: return "call of a non-function value";
    case sem::Fault::ArityMismatch: return "call with the wrong number of arguments";
    case sem::Fault::UnlockNotHeld: return "unlock of a lock that is not held";
    case sem::Fault::NegativeAlloc: return "allocation with a negative size";
  }
  return "runtime fault";
}

std::vector<DiagNote> witness_notes(const sem::LoweredProgram& prog,
                                    const explore::Witness& w) {
  std::vector<DiagNote> notes;
  notes.push_back(DiagNote{{}, "witness interleaving (" + std::to_string(w.steps.size()) +
                                   (w.steps.size() == 1 ? " step):" : " steps):")});
  for (std::size_t i = 0; i < w.steps.size(); ++i) {
    const explore::WitnessStep& s = w.steps[i];
    std::ostringstream os;
    os << "step " << i + 1 << ": p" << s.pid << ' ' << sem::action_kind_name(s.kind);
    if (!s.point.empty()) os << " at " << s.point;
    SourceSpan span;
    if (s.stmt != sem::kNoStmt) span = prog.stmt_span(s.stmt);
    notes.push_back(DiagNote{span, os.str()});
  }
  return notes;
}

Diagnostic make_finding(std::string_view code, Severity sev, SourceSpan span,
                        std::string message) {
  Diagnostic d;
  d.code = std::string(code);
  d.severity = sev;
  d.span = span;
  d.loc = span.begin;
  d.message = std::move(message);
  return d;
}

}  // namespace

std::span<const RuleInfo> catalog() { return kCatalog; }

const RuleInfo* find_rule(std::string_view code) {
  const auto it = std::lower_bound(kCatalog.begin(), kCatalog.end(), code,
                                   [](const RuleInfo& r, std::string_view c) { return r.id < c; });
  return it != kCatalog.end() && it->id == code ? &*it : nullptr;
}

std::string_view fault_code(sem::Fault f) {
  switch (f) {
    case sem::Fault::DerefNull: return "null-deref";
    case sem::Fault::DerefNonPointer: return "bad-deref";
    case sem::Fault::OutOfBounds: return "bounds";
    case sem::Fault::TypeError: return "type-error";
    case sem::Fault::DivByZero: return "div-zero";
    case sem::Fault::NotAFunction: return "not-a-function";
    case sem::Fault::ArityMismatch: return "arity-mismatch";
    case sem::Fault::UnlockNotHeld: return "unlock-not-held";
    case sem::Fault::NegativeAlloc: return "negative-alloc";
  }
  return "fault";
}

std::string_view tier_name(Tier t) {
  switch (t) {
    case Tier::Auto: return "auto";
    case Tier::Static: return "static";
    case Tier::Explore: return "explore";
    case Tier::Tmod: return "tmod";
  }
  return "?";
}

namespace {

/// The may-facts an alarm source establishes over every execution: the
/// interval abstract pass (auto/static/explore) or the thread-modular
/// engine (tmod), whose results carry these fields with identical types.
struct MayFacts {
  /// (stmt id, expr id, sem::Fault) may-fault triples.
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint8_t>> may_faults;
  std::set<std::uint32_t> may_fail_asserts;
  /// (stmt id, expr id, loc) reads that may observe the implicit zero.
  std::set<std::tuple<std::uint32_t, std::uint32_t, absem::AbsLoc>> uninit_reads;
  std::set<std::uint32_t> reached_stmts;
  /// The source stopped before its fixpoint: reachability is incomplete.
  bool truncated = false;
};

/// Moves the may-facts out of an AbsResult or a TmodResult.
template <class Result>
MayFacts take_may_facts(Result& r) {
  return {std::move(r.may_faults), std::move(r.may_fail_asserts), std::move(r.uninit_reads),
          std::move(r.reached_stmts), r.truncated};
}

/// The static facts: location classes, syntactic parallelism, and locksets
/// (docs/TIERED_CHECKING.md). auto/static derive the race candidate list
/// from them; tmod prunes its interference with them.
struct StaticFacts {
  explore::StaticInfo info;
  analysis::StaticParallelism par;
  analysis::LockSets locks;

  explicit StaticFacts(const sem::LoweredProgram& prog)
      : info(prog), par(prog, info), locks(prog, info) {}
};

/// One shared search over `cands`, each under `budget` configurations: a
/// reachable state where both statements of a candidate are enabled (for a
/// self-race, two enabled instances) is its witness. A search that runs out
/// of space without one refutes the candidate; one cut by the budget leaves
/// it undecided. Adds the search effort to `stats`.
std::vector<explore::WitnessAnswer> search_races(const sem::LoweredProgram& prog,
                                                 const explore::StaticInfo* info,
                                                 std::span<const analysis::RaceCandidate> cands,
                                                 std::uint64_t budget, TierStats& stats) {
  std::vector<explore::WitnessQuery> queries(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    queries[i].co_enabled = {cands[i].stmt1, cands[i].stmt2};
    queries[i].explore.max_configs = budget;
  }
  std::vector<explore::WitnessAnswer> answers = explore::find_witnesses(prog, queries, info);
  for (const explore::WitnessAnswer& a : answers) stats.configs_explored += a.stats.configs;
  return answers;
}

/// The explore tier's race list: the exact co-enabled conflicting pairs of
/// a complete exploration, else the sound flat-domain anomaly candidates.
/// Lock contention is dropped; each anomaly is one conflict kind.
std::vector<analysis::RaceCandidate> explore_races(const sem::LoweredProgram& prog,
                                                   const explore::ExploreResult& conc,
                                                   bool exhaustive,
                                                   std::uint64_t abs_max_states) {
  analysis::Anomalies anomalies;
  if (exhaustive) {
    anomalies = analysis::anomalies_from(conc);
  } else {
    absem::AbsOptions fopts;
    fopts.max_states = abs_max_states;
    anomalies =
        analysis::anomalies_from(absem::AbsExplorer<absdom::FlatInt>(prog, fopts).run());
  }
  std::vector<analysis::RaceCandidate> races;
  for (const analysis::Anomaly& a : anomalies.all) {
    if (analysis::is_sync_stmt(prog, a.stmt1) && analysis::is_sync_stmt(prog, a.stmt2)) {
      continue;
    }
    races.push_back({a.stmt1, a.stmt2, a.write_write, !a.write_write});
  }
  return races;
}

// --- emitters: one per finding code ----------------------------------------

/// Reports each race kind of `c`; "possible" when undecided. The note is
/// the witness interleaving co-enabling the pair when given, else `note`.
void emit_race(const sem::LoweredProgram& prog, DiagnosticEngine& engine,
               const analysis::RaceCandidate& c, bool possible, const explore::Witness* w,
               const std::optional<DiagNote>& note) {
  for (const bool ww : {true, false}) {
    if (ww ? !c.write_write : !c.write_read) continue;
    std::ostringstream msg;
    if (possible) msg << "possible ";
    msg << (ww ? "write/write" : "write/read") << " data race between "
        << analysis::describe_stmt(prog, c.stmt1) << " and "
        << analysis::describe_stmt(prog, c.stmt2);
    Diagnostic d = make_finding("race", Severity::Error, prog.stmt_span(c.stmt1), msg.str());
    d.related_spans.push_back(prog.stmt_span(c.stmt2));
    if (w != nullptr) {
      d.notes = witness_notes(prog, *w);
      d.notes.push_back(DiagNote{
          prog.stmt_span(c.stmt2), "here " + analysis::describe_stmt(prog, c.stmt1) + " and " +
                                       analysis::describe_stmt(prog, c.stmt2) +
                                       " are both enabled; either may fire first"});
    } else if (note.has_value()) {
      d.notes.push_back(*note);
    }
    engine.report(std::move(d));
  }
}

/// Abstract may-faults no concrete fault confirmed, one warning per
/// (statement, fault); returns how many.
std::uint64_t emit_may_faults(const sem::LoweredProgram& prog, DiagnosticEngine& engine,
                              const MayFacts& facts,
                              const std::set<std::pair<std::uint32_t, std::uint8_t>>& concrete,
                              const std::optional<DiagNote>& provenance) {
  std::set<std::pair<std::uint32_t, std::uint8_t>> seen;
  for (const auto& [stmt, expr, fault_raw] : facts.may_faults) {
    if (concrete.contains({stmt, fault_raw})) continue;
    if (!seen.insert({stmt, fault_raw}).second) continue;
    const auto fault = static_cast<sem::Fault>(fault_raw);
    Diagnostic d = make_finding(fault_code(fault), Severity::Warning, prog.stmt_span(stmt),
                                "possible " + std::string(fault_phrase(fault)) + " in " +
                                    analysis::describe_stmt(prog, stmt));
    if (provenance.has_value()) d.notes.push_back(*provenance);
    engine.report(std::move(d));
  }
  return seen.size();
}

/// Releases that may not own the lock (not in the must-held lockset). The
/// abstract domains do not model lock ownership; the lockset analysis does.
void emit_unlock_not_held(const sem::LoweredProgram& prog, DiagnosticEngine& engine,
                          const analysis::LockSets& locks) {
  if (!locks.pristine() || locks.unlocks_safe()) return;
  for (const sem::Proc& p : prog.procs()) {
    for (std::uint32_t pc = 0; pc < p.code.size(); ++pc) {
      const sem::Instr& i = p.code[pc];
      if (i.op != sem::Op::Unlock || !locks.live(p.id, pc)) continue;
      const auto slot = sem::lock_global_slot(prog, *i.lhs);
      const auto bit = slot ? locks.bit_of_slot(*slot) : std::nullopt;
      if (bit && (locks.held(p.id, pc) >> *bit & 1) != 0) continue;
      const SourceSpan span = i.stmt != nullptr ? prog.stmt_span(i.stmt->id()) : SourceSpan{};
      engine.report(make_finding("unlock-not-held", Severity::Warning, span,
                                 "possible unlock of a lock that is not held (not in the "
                                 "must-held lockset)"));
    }
  }
}

/// A possible deadlock no exploration confirmed, anchored at the first
/// blocking point that may hold a lock (or the first lock statement when
/// cells are tainted). `tier` names the tier in the message.
void emit_static_deadlock(const sem::LoweredProgram& prog, DiagnosticEngine& engine,
                          const analysis::LockSets& locks, std::string_view tier) {
  if (locks.deadlock_free()) return;
  SourceSpan span;
  for (const sem::Proc& p : prog.procs()) {
    for (std::uint32_t pc = 0; pc < p.code.size() && !span.valid(); ++pc) {
      const sem::Instr& i = p.code[pc];
      if (i.stmt == nullptr || !locks.live(p.id, pc)) continue;
      const bool blocks = i.op == sem::Op::Lock || i.op == sem::Op::Join;
      if (!blocks) continue;
      if (!locks.pristine() || locks.may_held(p.id, pc) != 0 ||
          locks.may_hold_unknown(p.id, pc)) {
        span = prog.stmt_span(i.stmt->id());
      }
    }
  }
  engine.report(make_finding("deadlock", Severity::Warning, span,
                             "possible deadlock: a process may block while holding a lock (" +
                                 std::string(tier) + " tier; run --tier=auto to confirm)"));
}

/// Abstract may-fail assertions no concrete violation confirmed; returns
/// how many.
std::uint64_t emit_may_fail_asserts(const sem::LoweredProgram& prog, DiagnosticEngine& engine,
                                    const MayFacts& facts,
                                    const std::set<std::uint32_t>& concrete,
                                    const std::optional<DiagNote>& provenance) {
  std::uint64_t n = 0;
  for (const std::uint32_t stmt : facts.may_fail_asserts) {
    if (concrete.contains(stmt)) continue;
    ++n;
    Diagnostic d = make_finding("assert-may-fail", Severity::Warning, prog.stmt_span(stmt),
                                "assertion may fail: " + analysis::describe_stmt(prog, stmt));
    if (provenance.has_value()) d.notes.push_back(*provenance);
    engine.report(std::move(d));
  }
  return n;
}

/// One warning per (statement, location) read of the implicit zero;
/// returns how many.
std::uint64_t emit_uninit_reads(const sem::LoweredProgram& prog, DiagnosticEngine& engine,
                                const MayFacts& facts) {
  std::set<std::pair<std::uint32_t, std::string>> seen;
  for (const auto& [stmt, expr, loc] : facts.uninit_reads) {
    std::string what = analysis::describe_loc(prog, loc);
    if (!seen.insert({stmt, what}).second) continue;
    engine.report(make_finding("uninit-read", Severity::Warning, prog.stmt_span(stmt),
                               "read of " + what + " before any write (observes the "
                               "implicit 0) in " + analysis::describe_stmt(prog, stmt)));
  }
  return seen.size();
}

/// Lowered statements the (converged) alarm source never reached.
void emit_unreachable(const sem::LoweredProgram& prog, DiagnosticEngine& engine,
                      const MayFacts& facts) {
  if (facts.truncated) return;
  std::set<std::uint32_t> lowered_stmts;
  for (const sem::Proc& p : prog.procs()) {
    for (const sem::Instr& instr : p.code) {
      if (instr.stmt != nullptr) lowered_stmts.insert(instr.stmt->id());
    }
  }
  for (const std::uint32_t stmt : lowered_stmts) {
    if (facts.reached_stmts.contains(stmt)) continue;
    engine.report(make_finding("unreachable", Severity::Warning, prog.stmt_span(stmt),
                               "statement is unreachable: " +
                                   analysis::describe_stmt(prog, stmt)));
  }
}

/// Tier statistics ride the shared metrics surface (`copar-cli
/// --metrics-out`, `metrics-dump`) as `check.*` counters.
void publish_stats(const TierStats& s) {
  StatRegistry reg;
  reg.set("check.pairs_total", s.pairs_total);
  reg.set("check.pruned_mhp", s.pruned_mhp);
  reg.set("check.pruned_lockset", s.pruned_lockset);
  reg.set("check.candidates", s.candidates);
  reg.set("check.confirmed", s.confirmed);
  reg.set("check.refuted", s.refuted);
  reg.set("check.budget_exhausted", s.budget_exhausted);
  reg.set("check.configs_explored", s.configs_explored);
  telemetry::Telemetry::global().publish_stats(reg);
}

}  // namespace

CheckSummary run_checks(const CompiledProgram& cp, DiagnosticEngine& engine,
                        const CheckOptions& opts) {
  const sem::LoweredProgram& prog = *cp.lowered;
  const Tier tier = opts.tier;
  CheckSummary sum;
  sum.tier = tier;

  // Static facts: every tier but explore (the legacy pipeline) reads them.
  std::optional<StaticFacts> st;
  if (tier != Tier::Explore) st.emplace(prog);

  // --- alarm source ---------------------------------------------------------
  // The may-facts, and the race candidates auto/static/tmod confirm or
  // report. Both sources terminate on every program (widening).
  MayFacts facts;
  analysis::CandidateReport cands;
  if (tier == Tier::Tmod) {
    // The rely/guarantee engine is the sole analysis: no interleaving
    // enumeration, so it answers on programs whose configuration space can
    // never be explored.
    absem::TmodResult<absdom::Interval> tm = absem::tmod_analyze<absdom::Interval>(
        prog, analysis::tmod_options(st->par, st->locks));
    sum.tmod = {.ran = true, .threads = tm.threads, .rounds = tm.rounds,
                .truncated = tm.truncated, .interference_facts = tm.interference_facts};
    cands.pairs_total = tm.races.pairs_total;
    cands.pruned_mhp = tm.races.pruned_mhp;
    cands.pruned_lockset = tm.races.pruned_lockset;
    for (const absem::TmodRace& r : tm.races.races) {
      cands.candidates.push_back({r.stmt1, r.stmt2, r.write_write, r.write_read});
    }
    facts = take_may_facts(tm);
  } else {
    absem::AbsOptions aopts;
    aopts.max_states = opts.abs_max_states;
    aopts.folding_facts = false;  // check reads the may-facts only
    absem::AbsResult<absdom::Interval> abs =
        absem::AbsExplorer<absdom::Interval>(prog, aopts).run();
    sum.abstract_states = abs.num_states;
    facts = take_may_facts(abs);
    if (st) cands = analysis::race_candidates(prog, st->info, st->par, st->locks);
  }
  sum.stats.pairs_total = cands.pairs_total;
  sum.stats.pruned_mhp = cands.pruned_mhp;
  sum.stats.pruned_lockset = cands.pruned_lockset;
  sum.stats.candidates = cands.candidates.size();

  // Everything but races is settled without exploration when the source
  // converged with no may-fault or may-fail assertion and the lockset
  // proofs cover deadlock and unlock-not-held (which the abstract domains
  // do not model).
  const bool discharged = st && !facts.truncated && facts.may_faults.empty() &&
                          facts.may_fail_asserts.empty() && st->locks.deadlock_free() &&
                          st->locks.unlocks_safe();
  // Directed searches decide race candidates: always on auto, on tmod unless
  // --no-witness; static never searches.
  const bool decide_races = tier == Tier::Auto || (tier == Tier::Tmod && opts.witnesses);

  // Concrete pass: ground truth when it completes — copar programs are
  // closed (no inputs), so an untruncated exploration covers every behavior.
  // Auto runs it only for what the static facts cannot discharge.
  explore::ExploreResult conc;
  if (tier == Tier::Explore || (tier == Tier::Auto && !discharged)) {
    explore::ExploreOptions eopts;
    // Only the explore tier reads the O(enabled²)-per-state pair record.
    eopts.record_pairs = tier == Tier::Explore;
    eopts.max_configs = opts.max_configs;
    conc = explore::explore(prog, eopts);
    sum.explored = true;
    sum.concrete_configs = conc.num_configs;
    sum.stats.configs_explored += conc.num_configs;
    sum.concrete_exhaustive = !conc.truncated;
  } else {
    // Definite when the static facts discharge everything and every race
    // candidate is decided (a search out of budget flips this below).
    sum.concrete_exhaustive = discharged && (decide_races || cands.candidates.empty());
  }

  std::size_t witness_budget = opts.witnesses ? opts.max_witnesses : 0;
  auto try_witness = [&](explore::WitnessQuery q) -> std::optional<explore::Witness> {
    if (witness_budget == 0) return std::nullopt;
    --witness_budget;
    q.explore.max_configs = opts.max_configs;
    explore::WitnessAnswer a =
        std::move(explore::find_witnesses(prog, std::span(&q, 1), st ? &st->info : nullptr)[0]);
    sum.stats.configs_explored += a.stats.configs;
    return std::move(a.witness);
  };

  // Without a complete concrete pass to confirm or refute them, the
  // may-facts surface as warnings (auto skips the pass only when there are
  // none). Tmod's carry the engine's provenance.
  const bool may_facts_open = !sum.explored || conc.truncated;
  std::optional<DiagNote> provenance;
  if (tier == Tier::Tmod) {
    provenance = DiagNote{{}, "established by the thread-modular interference analysis "
                              "(rely/guarantee, no interleaving enumeration); run "
                              "--tier=auto to confirm or refute concretely"};
  }
  std::uint64_t may_alarms = 0;  // tmod reports these plus its race candidates

  // --- run-time faults ----------------------------------------------------
  for (const auto& [stmt, fault_raw] : conc.faults) {
    const auto fault = static_cast<sem::Fault>(fault_raw);
    Diagnostic d = make_finding(fault_code(fault), Severity::Error, prog.stmt_span(stmt),
                                std::string(fault_phrase(fault)) + " in " +
                                    analysis::describe_stmt(prog, stmt));
    explore::WitnessQuery q;
    q.want_fault = stmt;
    if (auto w = try_witness(std::move(q))) d.notes = witness_notes(prog, *w);
    engine.report(std::move(d));
  }
  if (may_facts_open) may_alarms += emit_may_faults(prog, engine, facts, conc.faults, provenance);
  if (!sum.explored) emit_unlock_not_held(prog, engine, st->locks);

  // --- data races ---------------------------------------------------------
  const std::vector<analysis::RaceCandidate> races =
      tier == Tier::Explore
          ? explore_races(prog, conc, sum.concrete_exhaustive, opts.abs_max_states)
          : std::move(cands.candidates);
  // One shared search answers every race query: on auto and tmod it is the
  // confirmer, deciding each candidate under --pair-budget; on explore it
  // finds witnesses for the first races while the witness budget lasts.
  std::vector<explore::WitnessAnswer> searched;
  if (decide_races) {
    searched = search_races(prog, &st->info, races, opts.pair_budget, sum.stats);
  } else if (tier == Tier::Explore) {
    const std::size_t n = std::min(witness_budget, races.size());
    witness_budget -= n;
    searched = search_races(prog, nullptr, std::span(races).first(n), opts.max_configs,
                            sum.stats);
  }
  for (std::size_t i = 0; i < races.size(); ++i) {
    const analysis::RaceCandidate& c = races[i];
    std::optional<explore::Witness> w;
    if (i < searched.size()) w = std::move(searched[i].witness);
    std::optional<DiagNote> note;
    if (decide_races) {
      const bool exhausted = searched[i].stats.truncated;
      ++(w.has_value() ? sum.stats.confirmed
                       : (exhausted ? sum.stats.budget_exhausted : sum.stats.refuted));
      if (!w.has_value() && !exhausted) continue;  // refuted
      if (!w.has_value()) {
        note = DiagNote{{}, "directed search exhausted its --pair-budget of " +
                                std::to_string(opts.pair_budget) +
                                " configurations without confirming or refuting; raise it "
                                "to decide"};
      }
    } else if (tier == Tier::Tmod) {
      note = DiagNote{{}, "thread-modular candidate: re-run without --no-witness (or with "
                          "--tier=auto) to confirm or refute with a directed search"};
    } else if (tier == Tier::Static) {
      note = DiagNote{{}, "static-tier candidate: run --tier=auto to confirm or refute with "
                          "a directed search"};
    }
    const bool possible = tier == Tier::Explore ? !sum.concrete_exhaustive : !w.has_value();
    emit_race(prog, engine, c, possible, w.has_value() && opts.witnesses ? &*w : nullptr, note);
  }
  if (tier == Tier::Static) {
    // Pairs proven race-free by a common lock, as race-guarded notes.
    for (const analysis::SuppressedPair& s : cands.suppressed) {
      Diagnostic d = make_finding(
          "race-guarded", Severity::Note, prog.stmt_span(s.stmt1),
          "conflicting accesses " + analysis::describe_stmt(prog, s.stmt1) + " and " +
              analysis::describe_stmt(prog, s.stmt2) + " are race-free: both hold lock '" +
              s.lock + "'");
      d.related_spans.push_back(prog.stmt_span(s.stmt2));
      engine.report(std::move(d));
    }
  }
  if (sum.stats.budget_exhausted != 0) sum.concrete_exhaustive = false;

  // --- deadlock -----------------------------------------------------------
  if (!sum.explored) {
    emit_static_deadlock(prog, engine, st->locks,
                         tier == Tier::Tmod ? "thread-modular" : "static");
  }
  if (conc.deadlock_found) {
    // Anchor the finding at the statements the blocked processes sit on.
    SourceSpan span;
    std::vector<SourceSpan> related;
    for (const auto& [key, term] : conc.terminals) {
      if (!term.deadlock) continue;
      for (const sem::ActionInfo& info : sem::all_action_infos(term.config)) {
        if (info.stmt_id == sem::kNoStmt) continue;
        const SourceSpan s = prog.stmt_span(info.stmt_id);
        if (!span.valid()) {
          span = s;
        } else if (s.valid()) {
          related.push_back(s);
        }
      }
      break;
    }
    Diagnostic d = make_finding("deadlock", Severity::Error, span,
                                "the program can deadlock: some interleaving blocks every "
                                "live process");
    d.related_spans = std::move(related);
    explore::WitnessQuery q;
    q.want_deadlock = true;
    if (auto w = try_witness(std::move(q))) d.notes = witness_notes(prog, *w);
    engine.report(std::move(d));
  }

  // --- assertions ---------------------------------------------------------
  for (const std::uint32_t stmt : conc.violations) {
    Diagnostic d = make_finding("assert-fail", Severity::Error, prog.stmt_span(stmt),
                                "assertion fails on some interleaving: " +
                                    analysis::describe_stmt(prog, stmt));
    explore::WitnessQuery q;
    q.want_violation = stmt;
    if (auto w = try_witness(std::move(q))) d.notes = witness_notes(prog, *w);
    engine.report(std::move(d));
  }
  if (may_facts_open) {
    may_alarms += emit_may_fail_asserts(prog, engine, facts, conc.violations, provenance);
  }

  may_alarms += emit_uninit_reads(prog, engine, facts);
  emit_unreachable(prog, engine, facts);
  for (const std::uint32_t stmt : analysis::find_dead_stores(prog).stores) {
    engine.report(make_finding("dead-store", Severity::Warning, prog.stmt_span(stmt),
                               "stored value is never observed: " +
                                   analysis::describe_stmt(prog, stmt)));
  }
  if (sum.tmod.ran) sum.tmod.alarms = may_alarms + races.size();
  publish_stats(sum.stats);

  engine.sort_by_location();
  return sum;
}

}  // namespace copar::check
