// The static race tier (src/analysis/{lockset,staticmhp,racecand}) and its
// integration into the check battery (check --tier=...).
//
// The load-bearing property is the agreement invariant stated in
// racecand.h: the static candidate set over-approximates the explorer's
// races, and lock-suppressed pairs are never concretely racy. The
// TierAgreement tests check it differentially over every shipped sample
// under both Full and Stubborn exploration.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/anomaly.h"
#include "src/analysis/common.h"
#include "src/analysis/lockset.h"
#include "src/analysis/mhp.h"
#include "src/analysis/racecand.h"
#include "src/analysis/staticmhp.h"
#include "src/check/check.h"
#include "src/explore/explorer.h"
#include "src/explore/staticinfo.h"
#include "src/lang/ast.h"
#include "src/sem/program.h"
#include "src/support/diagnostics.h"

namespace copar {
namespace {

/// The whole static tier built over one source program.
struct Tier {
  std::unique_ptr<CompiledProgram> prog;
  std::unique_ptr<explore::StaticInfo> info;
  std::unique_ptr<analysis::StaticParallelism> par;
  std::unique_ptr<analysis::LockSets> locks;
  analysis::CandidateReport cands;
};

Tier build(std::string_view source) {
  Tier t;
  t.prog = compile(source);
  t.info = std::make_unique<explore::StaticInfo>(*t.prog->lowered);
  t.par = std::make_unique<analysis::StaticParallelism>(*t.prog->lowered, *t.info);
  t.locks = std::make_unique<analysis::LockSets>(*t.prog->lowered, *t.info);
  t.cands = analysis::race_candidates(*t.prog->lowered, *t.info, *t.par, *t.locks);
  return t;
}

std::uint32_t stmt(const Tier& t, std::string_view label) {
  const auto id = analysis::labeled_stmt(*t.prog->lowered, label);
  EXPECT_TRUE(id.has_value()) << "no statement labeled " << label;
  return id.value_or(0);
}

/// The candidate (if any) covering the normalized pair (a, b).
const analysis::RaceCandidate* candidate(const Tier& t, std::uint32_t a, std::uint32_t b) {
  const auto lo = std::min(a, b);
  const auto hi = std::max(a, b);
  for (const analysis::RaceCandidate& c : t.cands.candidates) {
    if (c.stmt1 == lo && c.stmt2 == hi) return &c;
  }
  return nullptr;
}

const analysis::SuppressedPair* suppressed(const Tier& t, std::uint32_t a, std::uint32_t b) {
  const auto lo = std::min(a, b);
  const auto hi = std::max(a, b);
  for (const analysis::SuppressedPair& s : t.cands.suppressed) {
    if (s.stmt1 == lo && s.stmt2 == hi) return &s;
  }
  return nullptr;
}

void expect_invariant(const Tier& t) {
  EXPECT_EQ(t.cands.pairs_total,
            t.cands.pruned_mhp + t.cands.pruned_lockset + t.cands.candidates.size());
  EXPECT_EQ(t.cands.pruned_lockset, t.cands.suppressed.size());
}

// --- syntactic MHP ---------------------------------------------------------

TEST(StaticMhp, CobeginSiblingsParallelSequencingNot) {
  const Tier t = build(R"(
    var x; var y;
    fun main() {
      sBefore: x = 5;
      cobegin { sA: x = 1; } || { sB: y = 2; } coend;
      sAfter: y = x;
    }
  )");
  const analysis::Mhp mhp = analysis::mhp_from(*t.prog->lowered, *t.info);
  EXPECT_EQ(mhp.parallel(*t.prog->lowered, "sA", "sB"), analysis::MhpAnswer::Yes);
  EXPECT_EQ(mhp.parallel(*t.prog->lowered, "sBefore", "sA"), analysis::MhpAnswer::No);
  EXPECT_EQ(mhp.parallel(*t.prog->lowered, "sAfter", "sA"), analysis::MhpAnswer::No);
  EXPECT_EQ(mhp.parallel(*t.prog->lowered, "sTypo", "sA"), analysis::MhpAnswer::UnknownLabel);
  // A statement is not parallel with itself in a plain cobegin branch.
  EXPECT_FALSE(mhp.parallel(stmt(t, "sA"), stmt(t, "sA")));
}

TEST(StaticMhp, ReachesThroughCallsAndNesting) {
  const Tier t = build(R"(
    var x;
    fun deep() { sDeep: x = 3; }
    fun mid() { deep(); }
    fun main() {
      cobegin
        { cobegin { sN1: x = 1; } || { mid(); } coend; }
      ||
        { sB: x = 2; }
      coend;
    }
  )");
  const analysis::Mhp mhp = analysis::mhp_from(*t.prog->lowered, *t.info);
  // Nested siblings are parallel; everything in the first branch is
  // parallel with the second branch, including through two calls.
  EXPECT_EQ(mhp.parallel(*t.prog->lowered, "sN1", "sDeep"), analysis::MhpAnswer::Yes);
  EXPECT_EQ(mhp.parallel(*t.prog->lowered, "sN1", "sB"), analysis::MhpAnswer::Yes);
  EXPECT_EQ(mhp.parallel(*t.prog->lowered, "sDeep", "sB"), analysis::MhpAnswer::Yes);
  EXPECT_EQ(mhp.parallel(*t.prog->lowered, "sN1", "sN1"), analysis::MhpAnswer::No);
}

TEST(StaticMhp, DoallBodyParallelWithItself) {
  const Tier t = build(R"(
    var a; var n = 3;
    fun main() {
      a = alloc(3);
      doall (i = 0 .. n - 1) { sBody: a[i] = i; }
    }
  )");
  const analysis::Mhp mhp = analysis::mhp_from(*t.prog->lowered, *t.info);
  EXPECT_EQ(mhp.parallel(*t.prog->lowered, "sBody", "sBody"), analysis::MhpAnswer::Yes);
}

TEST(StaticMhp, SequentialProgramHasNoPairs) {
  const Tier t = build(R"(
    var x;
    fun main() { sA: x = 1; sB: x = 2; }
  )");
  EXPECT_TRUE(analysis::mhp_from(*t.prog->lowered, *t.info).pairs.empty());
  EXPECT_EQ(t.cands.pairs_total, t.cands.pruned_mhp);
  EXPECT_TRUE(t.cands.candidates.empty());
}

// --- locksets --------------------------------------------------------------

TEST(LockSets, CommonLockSuppressesNamedPair) {
  const Tier t = build(R"(
    var count = 0; var m = 0;
    fun main() {
      cobegin
        { lock(m); sA: count = count + 1; unlock(m); }
      ||
        { lock(m); sB: count = count + 1; unlock(m); }
      coend;
    }
  )");
  expect_invariant(t);
  EXPECT_EQ(t.locks->num_locks(), 1u);
  EXPECT_EQ(t.locks->lock_name(0), "m");
  EXPECT_TRUE(t.locks->deadlock_free());
  EXPECT_TRUE(t.locks->unlocks_safe());
  EXPECT_TRUE(t.cands.candidates.empty());
  const auto* s = suppressed(t, stmt(t, "sA"), stmt(t, "sB"));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->lock, "m");
}

TEST(LockSets, HeldThroughCallProtectsCalleeBody) {
  // f's entry set is the intersection over its call sites; both hold m, so
  // the self-parallel f body is protected.
  const Tier t = build(R"(
    var x; var m = 0;
    fun f() { sF: x = x + 1; }
    fun main() {
      cobegin
        { lock(m); f(); unlock(m); }
      ||
        { lock(m); f(); unlock(m); }
      coend;
    }
  )");
  expect_invariant(t);
  EXPECT_TRUE(t.cands.candidates.empty());
  const auto* s = suppressed(t, stmt(t, "sF"), stmt(t, "sF"));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->lock, "m");
}

TEST(LockSets, CalleeUnlockKillsCallerMustSet) {
  // rel() may release m, so after the call the callers no longer must-hold
  // it: the sA/sB pair is a candidate, not a suppression.
  const Tier t = build(R"(
    var x; var m = 0;
    fun rel() { unlock(m); }
    fun main() {
      cobegin
        { lock(m); rel(); sA: x = 1; }
      ||
        { lock(m); rel(); sB: x = 2; }
      coend;
    }
  )");
  expect_invariant(t);
  EXPECT_NE(candidate(t, stmt(t, "sA"), stmt(t, "sB")), nullptr);
  EXPECT_EQ(suppressed(t, stmt(t, "sA"), stmt(t, "sB")), nullptr);
}

TEST(LockSets, ConditionalAcquireJoinsByIntersection) {
  const Tier t = build(R"(
    var x; var c; var m = 0;
    fun main() {
      cobegin
        {
          if (c == 1) { lock(m); } else { skip; }
          sA: x = 1;
          if (c == 1) { unlock(m); } else { skip; }
        }
      ||
        { lock(m); sB: x = 2; unlock(m); }
      coend;
    }
  )");
  expect_invariant(t);
  // One path to sA holds nothing, so the must-set is empty there.
  EXPECT_NE(candidate(t, stmt(t, "sA"), stmt(t, "sB")), nullptr);
  EXPECT_EQ(suppressed(t, stmt(t, "sA"), stmt(t, "sB")), nullptr);
}

TEST(LockSets, ForkedChildrenInheritNothing) {
  // Lock ownership is per-process: the parent holding m does not protect
  // its children from each other.
  const Tier t = build(R"(
    var x; var m = 0;
    fun main() {
      lock(m);
      cobegin { sA: x = 1; } || { sB: x = 2; } coend;
      unlock(m);
    }
  )");
  expect_invariant(t);
  EXPECT_NE(candidate(t, stmt(t, "sA"), stmt(t, "sB")), nullptr);
}

TEST(LockSets, LockOrderInversionIsNotDeadlockFree) {
  const Tier t = build(R"(
    var m = 0; var n = 0;
    fun main() {
      cobegin
        { lock(m); lock(n); unlock(n); unlock(m); }
      ||
        { lock(n); lock(m); unlock(m); unlock(n); }
      coend;
    }
  )");
  EXPECT_TRUE(t.locks->pristine());
  EXPECT_TRUE(t.locks->blocking_while_locked());
  EXPECT_FALSE(t.locks->deadlock_free());
}

TEST(LockSets, UnlockWithoutHoldIsNotSafe) {
  const Tier t = build(R"(
    var m = 0;
    fun main() { unlock(m); }
  )");
  EXPECT_TRUE(t.locks->pristine());
  EXPECT_FALSE(t.locks->unlocks_safe());
}

TEST(LockSets, PoisonedLockCellsAreNotPristine) {
  // A nonzero initializer breaks the ownership protocol...
  const Tier bad_init = build(R"(
    var m = 1;
    fun main() { lock(m); unlock(m); }
  )");
  EXPECT_FALSE(bad_init.locks->pristine());
  EXPECT_FALSE(bad_init.locks->deadlock_free());
  // ...and so does an ordinary write to the lock cell.
  const Tier data_write = build(R"(
    var m = 0;
    fun main() { lock(m); unlock(m); m = 0; }
  )");
  EXPECT_FALSE(data_write.locks->pristine());
}

// --- candidates ------------------------------------------------------------

TEST(Candidates, PartialLockFlagsExactlyTheHole) {
  const Tier t = build(R"(
    var count = 0; var extra = 0; var m = 0;
    fun main() {
      cobegin
        { lock(m); sL1: count = count + 1; unlock(m); sU: extra = extra + 1; }
      ||
        { lock(m); sL2: count = count + 1; unlock(m); sV: extra = extra + 1; }
      coend;
    }
  )");
  expect_invariant(t);
  ASSERT_EQ(t.cands.candidates.size(), 1u);
  const analysis::RaceCandidate* c = candidate(t, stmt(t, "sU"), stmt(t, "sV"));
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->write_write);
  EXPECT_TRUE(c->write_read);
  const auto* s = suppressed(t, stmt(t, "sL1"), stmt(t, "sL2"));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->lock, "m");
}

TEST(Candidates, RankedWriteWriteFirst) {
  const Tier t = build(R"(
    var x; var y;
    fun main() {
      cobegin
        { sWx: x = 1; sRy: x = y; }
      ||
        { sWx2: x = 2; sWy: y = 1; }
      coend;
    }
  )");
  expect_invariant(t);
  ASSERT_GE(t.cands.candidates.size(), 2u);
  for (std::size_t i = 1; i < t.cands.candidates.size(); ++i) {
    EXPECT_GE(t.cands.candidates[i - 1].score, t.cands.candidates[i].score);
  }
  EXPECT_TRUE(t.cands.candidates.front().write_write);
}

// --- check battery integration --------------------------------------------

constexpr std::string_view kPartialLock = R"(
    var count = 0; var extra = 0; var m = 0;
    fun main() {
      cobegin
        { lock(m); count = count + 1; unlock(m); sU: extra = extra + 1; }
      ||
        { lock(m); count = count + 1; unlock(m); sV: extra = extra + 1; }
      coend;
      sCheck: assert(count == 2);
    }
)";

constexpr std::string_view kAllLocked = R"(
    var a = 0; var b = 0; var ma = 0; var mb = 0;
    fun main() {
      cobegin
        { lock(ma); a = a + 1; unlock(ma); lock(mb); b = b + 1; unlock(mb); }
      ||
        { lock(ma); a = a + 2; unlock(ma); }
      ||
        { lock(mb); b = b + 2; unlock(mb); }
      coend;
    }
)";

struct CheckRun {
  std::unique_ptr<CompiledProgram> prog;
  DiagnosticEngine engine;
  check::CheckSummary summary;
};

CheckRun run_tier(std::string_view source, check::Tier tier,
                  std::uint64_t pair_budget = 50000) {
  CheckRun out;
  out.prog = compile(source);
  check::CheckOptions opts;
  opts.tier = tier;
  opts.pair_budget = pair_budget;
  out.summary = check::run_checks(*out.prog, out.engine, opts);
  return out;
}

std::size_t count_code(const DiagnosticEngine& engine, std::string_view code) {
  std::size_t n = 0;
  for (const Diagnostic& d : engine.all()) n += (d.code == code) ? 1 : 0;
  return n;
}

TEST(CheckTier, StaticNeverExplores) {
  const CheckRun r = run_tier(kPartialLock, check::Tier::Static);
  EXPECT_FALSE(r.summary.explored);
  EXPECT_EQ(r.summary.stats.configs_explored, 0u);
  EXPECT_EQ(r.summary.tier, check::Tier::Static);
  // The candidate surfaces as a "possible" race, the guarded pair as a note.
  EXPECT_GE(count_code(r.engine, "race"), 1u);
  EXPECT_GE(count_code(r.engine, "race-guarded"), 1u);
  for (const Diagnostic& d : r.engine.all()) {
    if (d.code == "race") {
      EXPECT_NE(d.message.find("possible"), std::string::npos) << d.message;
    }
    if (d.code == "race-guarded") {
      EXPECT_NE(d.message.find("lock 'm'"), std::string::npos) << d.message;
    }
  }
  // One candidate survived and stayed undecided.
  EXPECT_EQ(r.summary.stats.candidates, 1u);
  EXPECT_FALSE(r.summary.concrete_exhaustive);
}

TEST(CheckTier, AutoSkipsExplorationWhenStaticDischargesEverything) {
  const CheckRun r = run_tier(kAllLocked, check::Tier::Auto);
  EXPECT_TRUE(r.engine.all().empty()) << r.engine.to_string();
  EXPECT_FALSE(r.summary.explored);
  EXPECT_EQ(r.summary.stats.configs_explored, 0u);
  EXPECT_TRUE(r.summary.concrete_exhaustive);
  EXPECT_EQ(r.summary.stats.candidates, 0u);
  EXPECT_GT(r.summary.stats.pruned_lockset, 0u);
}

TEST(CheckTier, GuardedNotesAreStaticTierOnly) {
  const CheckRun st = run_tier(kAllLocked, check::Tier::Static);
  const CheckRun au = run_tier(kAllLocked, check::Tier::Auto);
  EXPECT_GT(count_code(st.engine, "race-guarded"), 0u);
  EXPECT_EQ(count_code(au.engine, "race-guarded"), 0u);
}

TEST(CheckTier, AutoConfirmsWithDirectedSearch) {
  const CheckRun r = run_tier(kPartialLock, check::Tier::Auto);
  EXPECT_EQ(r.summary.stats.candidates, 1u);
  EXPECT_EQ(r.summary.stats.confirmed, 1u);
  EXPECT_EQ(r.summary.stats.refuted, 0u);
  EXPECT_GT(r.summary.stats.configs_explored, 0u);
  EXPECT_GE(count_code(r.engine, "race"), 1u);
  for (const Diagnostic& d : r.engine.all()) {
    if (d.code != "race") continue;
    EXPECT_EQ(d.message.find("possible"), std::string::npos) << d.message;
    EXPECT_FALSE(d.notes.empty()) << "confirmed race should carry a witness";
  }
}

TEST(CheckTier, AutoMatchesExploreDiagnostics) {
  for (const std::string_view src : {kPartialLock, std::string_view(R"(
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
  )")}) {
    const CheckRun ex = run_tier(src, check::Tier::Explore);
    const CheckRun au = run_tier(src, check::Tier::Auto);
    ASSERT_EQ(ex.engine.all().size(), au.engine.all().size());
    for (std::size_t i = 0; i < ex.engine.all().size(); ++i) {
      const Diagnostic& a = ex.engine.all()[i];
      const Diagnostic& b = au.engine.all()[i];
      EXPECT_EQ(a.code, b.code);
      EXPECT_EQ(a.message, b.message);
      EXPECT_EQ(a.span, b.span);
      EXPECT_EQ(a.related_spans, b.related_spans);
    }
  }
}

TEST(CheckTier, PairBudgetExhaustionReportsPossible) {
  const CheckRun r = run_tier(kPartialLock, check::Tier::Auto, /*pair_budget=*/1);
  EXPECT_EQ(r.summary.stats.budget_exhausted, 1u);
  EXPECT_EQ(r.summary.stats.confirmed, 0u);
  EXPECT_FALSE(r.summary.concrete_exhaustive);
  bool possible = false;
  for (const Diagnostic& d : r.engine.all()) {
    if (d.code == "race" && d.message.find("possible") != std::string::npos) possible = true;
  }
  EXPECT_TRUE(possible);
}

TEST(CheckTier, StatsInvariantHoldsAcrossTiers) {
  for (const check::Tier tier :
       {check::Tier::Auto, check::Tier::Static, check::Tier::Explore}) {
    const CheckRun r = run_tier(kPartialLock, tier);
    const check::TierStats& s = r.summary.stats;
    if (tier == check::Tier::Explore) {
      EXPECT_EQ(s.pairs_total, 0u) << "explore tier skips the static pass";
      continue;
    }
    EXPECT_EQ(s.pairs_total, s.pruned_mhp + s.pruned_lockset + s.candidates);
  }
}

// --- agreement with the explorer over the shipped samples -------------------

TEST(TierAgreement, CandidatesCoverExplorerRacesOnAllSamples) {
  const std::filesystem::path dir = COPAR_SAMPLES_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cop") continue;
    std::ifstream in(entry.path());
    std::stringstream src;
    src << in.rdbuf();
    const Tier t = build(src.str());
    std::set<std::pair<std::uint32_t, std::uint32_t>> cand_pairs;
    for (const analysis::RaceCandidate& c : t.cands.candidates) {
      cand_pairs.insert({c.stmt1, c.stmt2});
    }
    std::set<std::pair<std::uint32_t, std::uint32_t>> supp_pairs;
    for (const analysis::SuppressedPair& s : t.cands.suppressed) {
      supp_pairs.insert({s.stmt1, s.stmt2});
    }
    for (const explore::Reduction red :
         {explore::Reduction::Full, explore::Reduction::Stubborn}) {
      explore::ExploreOptions opts;
      opts.reduction = red;
      opts.record_pairs = true;
      opts.max_configs = 300000;
      const explore::ExploreResult res = explore::explore(*t.prog->lowered, opts);
      if (res.truncated) continue;  // unbounded sample: nothing to compare
      ++checked;
      for (const analysis::Anomaly& a : analysis::anomalies_from(res).all) {
        if (analysis::is_sync_stmt(*t.prog->lowered, a.stmt1) &&
            analysis::is_sync_stmt(*t.prog->lowered, a.stmt2)) {
          continue;  // lock contention, not a data race
        }
        const auto key = std::make_pair(std::min(a.stmt1, a.stmt2),
                                        std::max(a.stmt1, a.stmt2));
        EXPECT_TRUE(cand_pairs.contains(key))
            << entry.path().filename() << ": explorer race "
            << analysis::describe_stmt(*t.prog->lowered, key.first) << " || "
            << analysis::describe_stmt(*t.prog->lowered, key.second)
            << " missing from static candidates";
        EXPECT_FALSE(supp_pairs.contains(key))
            << entry.path().filename() << ": statically suppressed pair is concretely racy";
      }
    }
  }
  EXPECT_GT(checked, 0u) << "no sample completed exploration";
}

}  // namespace
}  // namespace copar
