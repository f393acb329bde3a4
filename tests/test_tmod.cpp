// The thread-modular rely/guarantee engine (src/absem/tmod) and its
// integration into the check battery (check --tier=tmod).
//
// The load-bearing property is soundness inclusion: tmod never enumerates
// interleavings, so everything the concrete explorer can observe must be
// covered by a tmod alarm — races, failing assertions, runtime faults.
// The TmodAgreement tests check it differentially over every shipped
// sample, in both instantiated domains (intervals and flat constants), and
// additionally pin that a tmod race candidate *refuted* by an exhaustive
// directed search never reappears as a concrete explorer race. The
// TmodStaticMhp tests pin that the static-MHP hook tmod runs with answers
// exactly as the materialized statement-pair set would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/absdom/flat.h"
#include "src/absdom/interval.h"
#include "src/absem/tmod.h"
#include "src/analysis/anomaly.h"
#include "src/analysis/common.h"
#include "src/analysis/lockset.h"
#include "src/analysis/racecand.h"
#include "src/analysis/staticmhp.h"
#include "src/check/check.h"
#include "src/explore/explorer.h"
#include "src/explore/witness.h"
#include "src/lang/ast.h"
#include "src/sem/program.h"
#include "src/sem/step.h"
#include "src/support/diagnostics.h"
#include "src/workload/random_programs.h"

namespace copar {
namespace {

using StmtPair = std::pair<std::uint32_t, std::uint32_t>;

StmtPair norm(std::uint32_t a, std::uint32_t b) {
  return {std::min(a, b), std::max(a, b)};
}

template <absem::NumDomain N>
std::set<StmtPair> tmod_race_pairs(const absem::TmodResult<N>& r) {
  std::set<StmtPair> out;
  for (const absem::TmodRace& c : r.races.races) out.insert(norm(c.stmt1, c.stmt2));
  return out;
}

/// Co-enabledness predicate for the directed refutation searches: the
/// condition of check.cpp's shared race search, as a per-state callback.
std::function<bool(const sem::Configuration&)> race_reach(std::uint32_t s1,
                                                          std::uint32_t s2) {
  return [s1, s2](const sem::Configuration& cfg) {
    int n1 = 0;
    int n2 = 0;
    for (const sem::ActionInfo& info : sem::all_action_infos(cfg)) {
      if (!info.enabled || info.stmt_id == sem::kNoStmt) continue;
      if (info.stmt_id == s1) ++n1;
      if (info.stmt_id == s2) ++n2;
    }
    return s1 == s2 ? n1 >= 2 : (n1 >= 1 && n2 >= 1);
  };
}

// --- engine basics ---------------------------------------------------------

constexpr std::string_view kRacyCounter = R"(
    var count = 0;
    fun main() {
      var t1; var t2;
      cobegin
        { sA1: t1 = count; sA2: count = t1 + 1; }
      ||
        { sB1: t2 = count; sB2: count = t2 + 1; }
      coend;
      sCheck: assert(count == 2);
    }
)";

constexpr std::string_view kUnboundedSpin = R"(
    var count = 0; var stop = 0;
    fun main() {
      cobegin
        { while (stop == 0) { sInc: count = count + 1; } }
      ||
        { sStop: stop = 1; }
      coend;
      sCheck: assert(count >= 0);
    }
)";

TEST(Tmod, ConvergesAndFindsTheLostUpdate) {
  const auto prog = compile(kRacyCounter);
  const auto r = absem::tmod_analyze<absdom::Interval>(*prog->lowered);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.threads, 3u);  // main + two cobegin branches
  EXPECT_GT(r.rounds, 0u);
  EXPECT_GT(r.interference_facts, 0u);
  // Race accounting invariant.
  EXPECT_EQ(r.races.pairs_total,
            r.races.pruned_mhp + r.races.pruned_lockset + r.races.races.size());
  EXPECT_FALSE(r.races.races.empty());
  // Under interference the increments are not atomic: count == 2 is not
  // provable, so the assertion must stay a may-alarm.
  EXPECT_FALSE(r.may_fail_asserts.empty());
}

TEST(Tmod, IsDeterministic) {
  const auto prog = compile(kRacyCounter);
  const auto a = absem::tmod_analyze<absdom::Interval>(*prog->lowered);
  const auto b = absem::tmod_analyze<absdom::Interval>(*prog->lowered);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.interference_facts, b.interference_facts);
  EXPECT_EQ(a.races.races, b.races.races);
  EXPECT_EQ(a.may_fail_asserts, b.may_fail_asserts);
  EXPECT_EQ(a.accesses, b.accesses);
}

TEST(Tmod, TerminatesWhereExplorersTruncate) {
  // The acceptance program: an unbounded spin loop. Every enumerating
  // engine truncates; tmod converges and still reports soundly.
  const auto prog = compile(kUnboundedSpin);
  explore::ExploreOptions eopts;
  eopts.max_configs = 5000;
  const explore::ExploreResult conc = explore::explore(*prog->lowered, eopts);
  EXPECT_TRUE(conc.truncated);

  const auto r = absem::tmod_analyze<absdom::Interval>(*prog->lowered);
  EXPECT_FALSE(r.truncated);
  // The stop-flag handoff is the (only) race: the spin read vs sStop.
  EXPECT_FALSE(r.races.races.empty());
  // count ∈ [0, +inf] under any interference, so `count >= 0` is proven:
  // no assertion alarm on an unbounded program is the whole point.
  EXPECT_TRUE(r.may_fail_asserts.empty());
}

// Round 1 refines main's loop exit on its own frame slot, then finds the
// call to main, after which that frame is a summary and refinement stops;
// nothing requeues the loop test. Round 2 must still re-analyze main,
// although its rely and seed did not grow, and round 3 confirms the
// fixpoint: the rounds of analyzing every root every round.
TEST(Tmod, FirstCallToMainReanalyzesItsThread) {
  const auto prog = compile(R"(
    var x = 0;
    fun main() {
      var i = 0;
      while (i < 3) { i = i + 1; }
      if (i < 3) { x = 99; }
      if (x == 0) { main(); }
      assert(x == 0);
    }
  )");
  const auto r = absem::tmod_analyze<absdom::Interval>(*prog->lowered);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.rounds, 3u);
}

TEST(Tmod, LocksetHookPrunesMutuallyExclusiveSections) {
  const auto prog = compile(R"(
    var count = 0; var m = 0;
    fun main() {
      cobegin
        { lock(m); sA: count = count + 1; unlock(m); }
      ||
        { lock(m); sB: count = count + 1; unlock(m); }
      coend;
    }
  )");
  DiagnosticEngine engine;
  check::CheckOptions opts;
  opts.tier = check::Tier::Tmod;
  const check::CheckSummary sum = check::run_checks(*prog, engine, opts);
  EXPECT_TRUE(sum.tmod.ran);
  EXPECT_GT(sum.stats.pruned_lockset, 0u);
  EXPECT_EQ(sum.stats.candidates, 0u);
  EXPECT_EQ(sum.stats.configs_explored, 0u);
}

TEST(CheckTmod, PureTierNeverExplores) {
  const auto prog = compile(kRacyCounter);
  DiagnosticEngine engine;
  check::CheckOptions opts;
  opts.tier = check::Tier::Tmod;
  opts.witnesses = false;  // the pure zero-exploration path
  const check::CheckSummary sum = check::run_checks(*prog, engine, opts);
  EXPECT_EQ(sum.tier, check::Tier::Tmod);
  EXPECT_FALSE(sum.explored);
  EXPECT_EQ(sum.stats.configs_explored, 0u);
  EXPECT_TRUE(sum.tmod.ran);
  EXPECT_GT(sum.tmod.threads, 0u);
  EXPECT_GT(sum.tmod.alarms, 0u);
  // Candidates stay "possible" without the directed searches.
  bool possible_race = false;
  for (const Diagnostic& d : engine.all()) {
    if (d.code == "race" && d.message.find("possible") != std::string::npos) {
      possible_race = true;
    }
  }
  EXPECT_TRUE(possible_race);
}

TEST(CheckTmod, DirectedSearchConfirmsRealRaces) {
  const auto prog = compile(kRacyCounter);
  DiagnosticEngine engine;
  check::CheckOptions opts;
  opts.tier = check::Tier::Tmod;
  const check::CheckSummary sum = check::run_checks(*prog, engine, opts);
  EXPECT_GT(sum.stats.confirmed, 0u);
  EXPECT_GT(sum.stats.configs_explored, 0u);
  for (const Diagnostic& d : engine.all()) {
    if (d.code != "race") continue;
    EXPECT_EQ(d.message.find("possible"), std::string::npos) << d.message;
    EXPECT_FALSE(d.notes.empty()) << "confirmed race should carry a witness";
  }
}

// --- soundness inclusion over the shipped samples --------------------------

/// Everything the concrete explorer observed on a completed exploration.
struct ConcreteFacts {
  bool completed = false;
  std::set<StmtPair> races;
  std::set<std::uint32_t> violations;
  std::set<std::pair<std::uint32_t, std::uint8_t>> faults;
};

ConcreteFacts concrete_facts(const sem::LoweredProgram& prog) {
  ConcreteFacts out;
  explore::ExploreOptions opts;
  opts.record_pairs = true;
  opts.max_configs = 300000;
  const explore::ExploreResult res = explore::explore(prog, opts);
  if (res.truncated) return out;
  out.completed = true;
  for (const analysis::Anomaly& a : analysis::anomalies_from(res).all) {
    if (analysis::is_sync_stmt(prog, a.stmt1) && analysis::is_sync_stmt(prog, a.stmt2)) continue;
    out.races.insert(norm(a.stmt1, a.stmt2));
  }
  out.violations = res.violations;
  for (const auto& f : res.faults) out.faults.insert(f);
  return out;
}

template <absem::NumDomain N>
void expect_inclusion(const std::string& name, const sem::LoweredProgram& prog,
                      const ConcreteFacts& conc) {
  const absem::TmodResult<N> tm = absem::tmod_analyze<N>(prog);
  ASSERT_FALSE(tm.truncated) << name;
  EXPECT_EQ(tm.races.pairs_total,
            tm.races.pruned_mhp + tm.races.pruned_lockset + tm.races.races.size())
      << name;

  const std::set<StmtPair> tmod_races = tmod_race_pairs(tm);
  for (const StmtPair& p : conc.races) {
    EXPECT_TRUE(tmod_races.contains(p))
        << name << ": explorer race " << analysis::describe_stmt(prog, p.first) << " || "
        << analysis::describe_stmt(prog, p.second) << " missing from tmod alarms";
  }
  for (const std::uint32_t v : conc.violations) {
    EXPECT_TRUE(tm.may_fail_asserts.contains(v))
        << name << ": concretely failing assert " << analysis::describe_stmt(prog, v)
        << " missing from tmod may-fail set";
  }
  std::set<std::pair<std::uint32_t, std::uint8_t>> tmod_faults;
  for (const auto& [stmt, expr, fault] : tm.may_faults) tmod_faults.insert({stmt, fault});
  for (const auto& f : conc.faults) {
    EXPECT_TRUE(tmod_faults.contains(f))
        << name << ": concrete fault at " << analysis::describe_stmt(prog, f.first)
        << " missing from tmod may-faults";
  }

  // Refutation soundness: a tmod candidate killed by an *exhaustive*
  // directed search must not be a concrete race (the search and the full
  // exploration agree on reachability).
  for (const absem::TmodRace& c : tm.races.races) {
    explore::WitnessQuery q;
    q.reach_predicate = race_reach(c.stmt1, c.stmt2);
    q.explore.max_configs = 300000;
    explore::WitnessStats ws;
    const auto w = explore::find_witness(prog, q, &ws);
    if (!w.has_value() && !ws.truncated) {
      EXPECT_FALSE(conc.races.contains(norm(c.stmt1, c.stmt2)))
          << name << ": refuted tmod candidate "
          << analysis::describe_stmt(prog, c.stmt1) << " || "
          << analysis::describe_stmt(prog, c.stmt2) << " is a concrete explorer race";
    }
  }
}

TEST(TmodAgreement, AlarmsCoverExplorerFindingsOnAllSamples) {
  const std::filesystem::path dir = COPAR_SAMPLES_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cop") continue;
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path());
    std::stringstream src;
    src << in.rdbuf();
    const auto prog = compile(src.str());
    const ConcreteFacts conc = concrete_facts(*prog->lowered);
    if (!conc.completed) continue;  // unbounded sample: nothing to compare
    ++checked;
    expect_inclusion<absdom::Interval>(name, *prog->lowered, conc);
    expect_inclusion<absdom::FlatInt>(name, *prog->lowered, conc);
  }
  EXPECT_GT(checked, 0u) << "no sample completed exploration";
}

// --- the static-MHP hook -----------------------------------------------------

/// `threads` spin loops over racy and lock-guarded globals plus one thread
/// that stops them: check_tmod's program shape, an infinite state space.
std::string spin_program(std::size_t threads) {
  std::ostringstream os;
  os << "var stop; var r0; var r1; var r2; var g0; var m0; var g1; var m1;\n";
  os << "fun main() {\n  cobegin\n";
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t g = t % 2;
    os << "    { while (stop == 0) {\n"
       << "        lock(m" << g << "); g" << g << " = g" << g << " + " << t + 1 << "; unlock(m"
       << g << ");\n"
       << "        r" << t % 3 << " = r" << (t + 1) % 3 << " + g" << g << ";\n"
       << "    } }\n  ||\n";
  }
  os << "    { stop = 1; }\n  coend;\n}\n";
  return os.str();
}

/// The samples, the stubborn oracle's 300 random programs, and spin loops
/// of each of `spins` threads: (name, source).
std::vector<std::pair<std::string, std::string>> mhp_oracle_programs(
    std::initializer_list<std::size_t> spins = {8, 16, 32}) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& entry : std::filesystem::directory_iterator(COPAR_SAMPLES_DIR)) {
    if (entry.path().extension() != ".cop") continue;
    std::ifstream in(entry.path());
    std::stringstream src;
    src << in.rdbuf();
    out.emplace_back(entry.path().filename().string(), src.str());
  }
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    out.emplace_back("seed " + std::to_string(seed), workload::random_program(seed));
  }
  workload::RandomOptions wide;
  wide.num_branches = 3;
  wide.max_branch_stmts = 3;
  for (std::uint64_t seed = 1000; seed < 1050; ++seed) {
    out.emplace_back("wide seed " + std::to_string(seed), workload::random_program(seed, wide));
  }
  workload::RandomOptions doall;
  doall.use_doall = true;
  doall.max_branch_stmts = 3;
  for (std::uint64_t seed = 2000; seed < 2050; ++seed) {
    out.emplace_back("doall seed " + std::to_string(seed),
                     workload::random_program(seed, doall));
  }
  for (const std::size_t threads : spins) {
    out.emplace_back("spin " + std::to_string(threads), spin_program(threads));
  }
  return out;
}

TEST(TmodStaticMhp, ParallelStmtsEqualsTheMaterializedPairSet) {
  std::size_t programs = 0;
  for (const auto& [name, source] : mhp_oracle_programs()) {
    const auto prog = compile(source);
    const sem::LoweredProgram& lp = *prog->lowered;
    const explore::StaticInfo info(lp);
    const analysis::StaticParallelism par(lp, info);
    const analysis::Mhp mhp = par.stmt_mhp();
    std::set<std::uint32_t> stmts;
    for (const sem::Proc& p : lp.procs()) {
      for (const sem::Instr& i : p.code) {
        if (i.stmt != nullptr) stmts.insert(i.stmt->id());
      }
    }
    std::size_t mismatches = 0;
    for (const std::uint32_t s : stmts) {
      for (const std::uint32_t t : stmts) {
        if (par.parallel_stmts(s, t) != mhp.parallel(s, t)) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << name;
    ++programs;
  }
  EXPECT_GE(programs, 11u + 300u + 3u);
}

TEST(TmodStaticMhp, HookGivesTheRacesOfTheMaterializedHook) {
  for (const auto& [name, source] : mhp_oracle_programs()) {
    const auto prog = compile(source);
    const sem::LoweredProgram& lp = *prog->lowered;
    const explore::StaticInfo info(lp);
    const analysis::StaticParallelism par(lp, info);
    const analysis::LockSets locks(lp, info);
    const analysis::Mhp mhp = par.stmt_mhp();
    const absem::TmodOptions hook = analysis::tmod_options(par, locks);
    absem::TmodOptions materialized = hook;
    materialized.parallel = [&mhp](std::uint32_t s, std::uint32_t t) {
      return mhp.parallel(s, t);
    };
    const auto a = absem::tmod_analyze<absdom::Interval>(lp, hook);
    const auto b = absem::tmod_analyze<absdom::Interval>(lp, materialized);
    EXPECT_EQ(a.races.races, b.races.races) << name;
    EXPECT_EQ(a.races.pairs_total, b.races.pairs_total) << name;
    EXPECT_EQ(a.races.pruned_mhp, b.races.pruned_mhp) << name;
    EXPECT_EQ(a.races.pruned_lockset, b.races.pruned_lockset) << name;
  }
}

// --- the shared race search ------------------------------------------------

/// check's race confirmer answers every static-tier candidate with one
/// breadth-first search. Each answer must be exactly what a search for that
/// candidate alone, with a co-enabledness callback, reports: verdict,
/// configurations charged, schedule and reached configuration.
TEST(SharedRaceSearch, AnswersEachCandidateAsItsOwnSearch) {
  std::size_t compared = 0;
  std::size_t confirmed = 0;
  std::size_t exhausted = 0;
  std::size_t refuted = 0;
  for (const auto& [name, source] : mhp_oracle_programs({4, 8})) {
    const auto prog = compile(source);
    const sem::LoweredProgram& lp = *prog->lowered;
    const explore::StaticInfo info(lp);
    const analysis::StaticParallelism par(lp, info);
    const analysis::LockSets locks(lp, info);
    const std::vector<analysis::RaceCandidate> cands =
        analysis::race_candidates(lp, info, par, locks).candidates;
    for (const std::uint64_t budget :
         {std::uint64_t{2}, std::uint64_t{50}, check::CheckOptions{}.pair_budget}) {
      std::vector<explore::WitnessQuery> queries(cands.size());
      for (std::size_t i = 0; i < cands.size(); ++i) {
        queries[i].co_enabled = {cands[i].stmt1, cands[i].stmt2};
        queries[i].explore.max_configs = budget;
      }
      const std::vector<explore::WitnessAnswer> shared =
          explore::find_witnesses(lp, queries, &info);
      ASSERT_EQ(shared.size(), cands.size()) << name;
      for (std::size_t i = 0; i < cands.size(); ++i) {
        const analysis::RaceCandidate& c = cands[i];
        const std::string at = name + ", budget " + std::to_string(budget) + ": " +
                               analysis::describe_stmt(lp, c.stmt1) + " || " +
                               analysis::describe_stmt(lp, c.stmt2);
        explore::WitnessQuery alone;
        alone.reach_predicate = race_reach(c.stmt1, c.stmt2);
        alone.explore.max_configs = budget;
        explore::WitnessStats ws;
        const std::optional<explore::Witness> w = explore::find_witness(lp, alone, &ws);
        const explore::WitnessAnswer& a = shared[i];
        ++compared;
        ++(w.has_value() ? confirmed : (ws.truncated ? exhausted : refuted));
        EXPECT_EQ(a.witness.has_value(), w.has_value()) << at;
        EXPECT_EQ(a.stats.truncated, ws.truncated) << at;
        EXPECT_EQ(a.stats.configs, ws.configs) << at;
        if (!a.witness.has_value() || !w.has_value()) continue;
        EXPECT_EQ(a.witness->terminal.canonical_key(), w->terminal.canonical_key()) << at;
        ASSERT_EQ(a.witness->steps.size(), w->steps.size()) << at;
        for (std::size_t k = 0; k < w->steps.size(); ++k) {
          const explore::WitnessStep& x = a.witness->steps[k];
          const explore::WitnessStep& y = w->steps[k];
          EXPECT_EQ(x.pid, y.pid) << at << ", step " << k;
          EXPECT_EQ(x.stmt, y.stmt) << at << ", step " << k;
          EXPECT_EQ(x.kind, y.kind) << at << ", step " << k;
          EXPECT_EQ(x.point, y.point) << at << ", step " << k;
        }
      }
    }
  }
  // Every verdict occurs, so the comparison covers each way a query ends.
  EXPECT_GT(confirmed, 0u);
  EXPECT_GT(exhausted, 0u);
  EXPECT_GT(refuted, 0u);
  EXPECT_GT(compared, 1000u);
}

}  // namespace
}  // namespace copar
