// Abstract-exploration tests: folding modes, soundness against the concrete
// explorer, and termination on programs whose concrete state space is
// unbounded (the reason §6 exists).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/absdom/flat.h"
#include "src/absdom/interval.h"
#include "src/absem/absexplore.h"
#include "src/explore/explorer.h"
#include "src/sem/program.h"
#include "src/workload/philosophers.h"
#include "src/workload/random_programs.h"

namespace copar::absem {
namespace {

using absdom::FlatInt;
using absdom::Interval;

std::vector<std::unique_ptr<CompiledProgram>>& keep_alive() {
  static std::vector<std::unique_ptr<CompiledProgram>> v;
  return v;
}

const CompiledProgram& compiled(std::string_view src) {
  keep_alive().push_back(compile(src));
  return *keep_alive().back();
}

template <NumDomain N = FlatInt>
AbsResult<N> abs_run(const CompiledProgram& p, Folding folding = Folding::Tree) {
  AbsOptions opts;
  opts.folding = folding;
  return AbsExplorer<N>(*p.lowered, opts).run();
}

/// Concrete co-enabled statement pairs via full exploration.
std::set<std::pair<std::uint32_t, std::uint32_t>> concrete_mhp(const CompiledProgram& p) {
  explore::ExploreOptions opts;
  opts.record_pairs = true;
  const auto r = explore::explore(*p.lowered, opts);
  std::set<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& [key, facts] : r.pairs) {
    if (facts.co_enabled) out.insert(key);
  }
  return out;
}

TEST(Absem, SequentialConstantsArePropagated) {
  const auto& p = compiled(R"(
    var x;
    fun main() { x = 2; sQ: x = x + 3; }
  )");
  const auto r = abs_run(p);
  // At the labelled statement, x is the constant 2.
  const lang::Stmt* sq = p.module->find_labeled("sQ");
  ASSERT_NE(sq, nullptr);
  // Find the point whose instruction is sQ and ask for the global x.
  std::uint32_t slot = 0;
  for (const auto& g : p.lowered->globals()) {
    if (p.module->interner().spelling(g.name) == "x") slot = g.slot;
  }
  bool found = false;
  for (const auto& [point, store] : r.point_stores) {
    const auto& instr = p.lowered->proc(point.first).code[point.second];
    if (instr.stmt == sq) {
      found = true;
      EXPECT_EQ(store.get(AbsLoc::global(slot)).num.as_constant(), 2);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Absem, RacingWriteForcesTop) {
  const auto& p = compiled(R"(
    var x;
    fun main() {
      cobegin { x = 1; } || { x = 2; } coend;
      sQ: skip;
    }
  )");
  const auto r = abs_run(p);
  std::uint32_t slot = 0;
  for (const auto& g : p.lowered->globals()) {
    if (p.module->interner().spelling(g.name) == "x") slot = g.slot;
  }
  const lang::Stmt* sq = p.module->find_labeled("sQ");
  bool found = false;
  for (const auto& [point, store] : r.point_stores) {
    const auto& instr = p.lowered->proc(point.first).code[point.second];
    if (instr.stmt == sq) {
      found = true;
      EXPECT_TRUE(store.get(AbsLoc::global(slot)).num.is_top());
    }
  }
  EXPECT_TRUE(found);
}

TEST(Absem, TrueAssertNotFlagged) {
  const auto& p = compiled(R"(
    var x;
    fun main() { x = 1; sA: assert(x == 1); }
  )");
  const auto r = abs_run(p);
  EXPECT_TRUE(r.may_fail_asserts.empty());
}

TEST(Absem, RacyAssertFlagged) {
  const auto& p = compiled(R"(
    var x;
    fun main() { cobegin { x = 1; } || { sA: assert(x == 1); } coend; }
  )");
  const auto r = abs_run(p);
  EXPECT_EQ(r.may_fail_asserts.size(), 1u);
}

TEST(Absem, TerminatesOnInfiniteCounterLoop) {
  // Concretely this program has unboundedly many states (x grows forever);
  // the abstract semantics folds them and terminates — the motivation for
  // abstraction in §6.
  const auto& p = compiled(R"(
    var x;
    fun main() { while (true) { x = x + 1; } }
  )");
  const auto flat = abs_run<FlatInt>(p);
  EXPECT_FALSE(flat.truncated);
  const auto iv = abs_run<Interval>(p);
  EXPECT_FALSE(iv.truncated);
}

TEST(Absem, TerminatesOnUnboundedRecursion) {
  const auto& p = compiled(R"(
    var x;
    fun f(n) { x = x + 1; f(n + 1); }
    fun main() { f(0); }
  )");
  const auto r = abs_run(p);
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.num_states, 0u);
}

TEST(Absem, MhpOverapproximatesConcreteSimple) {
  const auto& p = compiled(R"(
    var x; var y;
    fun main() {
      cobegin { s1: x = 1; s2: x = 2; } || { s3: y = 1; s4: y = x; } coend;
    }
  )");
  const auto concrete = concrete_mhp(p);
  const auto abs = abs_run(p);
  for (const auto& pair : concrete) {
    EXPECT_TRUE(abs.mhp.contains(pair))
        << "abstract MHP lost pair (" << pair.first << "," << pair.second << ")";
  }
}

TEST(Absem, MhpOverapproximatesConcreteWithCallsAndLocks) {
  const auto& p = compiled(R"(
    var m; var x; var a;
    fun bump() { sB: x = x + 1; }
    fun main() {
      cobegin
        { lock(m); bump(); unlock(m); }
      ||
        { sR: a = x; }
      coend;
    }
  )");
  const auto concrete = concrete_mhp(p);
  const auto abs = abs_run(p);
  for (const auto& pair : concrete) {
    EXPECT_TRUE(abs.mhp.contains(pair))
        << "abstract MHP lost pair (" << pair.first << "," << pair.second << ")";
  }
}

TEST(Absem, ClanFoldingCoarserThanTree) {
  const auto& p = compiled(R"(
    var x; var y;
    fun main() {
      cobegin { x = 1; x = 2; } || { y = 1; y = 2; } coend;
      x = y;
    }
  )");
  const auto tree = abs_run(p, Folding::Tree);
  const auto clan = abs_run(p, Folding::Clan);
  // Clan folding only merges states, never invents control points, so its
  // MHP is a superset and its state count no larger.
  for (const auto& pair : tree.mhp) EXPECT_TRUE(clan.mhp.contains(pair));
  EXPECT_LE(clan.num_states, tree.num_states);
}

TEST(Absem, SideEffectsIncludeCallees) {
  const auto& p = compiled(R"(
    var g1; var g2;
    fun inner() { g2 = 1; }
    fun outer() { g1 = 1; inner(); }
    fun main() { outer(); }
  )");
  const auto r = abs_run(p);
  const std::uint32_t outer_id = p.module->find_function("outer")->index();
  auto [reads, writes] = r.effects_of(outer_id);
  std::set<std::string> written;
  for (const AbsLoc& loc : writes) written.insert(loc.to_string());
  std::uint32_t g1_slot = 0;
  std::uint32_t g2_slot = 0;
  for (const auto& g : p.lowered->globals()) {
    if (p.module->interner().spelling(g.name) == "g1") g1_slot = g.slot;
    if (p.module->interner().spelling(g.name) == "g2") g2_slot = g.slot;
  }
  EXPECT_TRUE(writes.contains(AbsLoc::global(g1_slot)));
  EXPECT_TRUE(writes.contains(AbsLoc::global(g2_slot)));  // transitive via inner
}

TEST(Absem, CallEdgesThroughFunctionValues) {
  const auto& p = compiled(R"(
    var g;
    fun f() { g = 1; }
    fun main() { var h = f; h(); }
  )");
  const auto r = abs_run(p);
  const std::uint32_t f_id = p.module->find_function("f")->index();
  const std::uint32_t main_id = p.lowered->entry_proc();
  ASSERT_TRUE(r.call_edges.contains(main_id));
  EXPECT_TRUE(r.call_edges.at(main_id).contains(f_id));
}

TEST(Absem, PointsToTracksAllocationSites) {
  const auto& p = compiled(R"(
    var p1;
    fun main() { sAl: p1 = alloc(2); sUse: *p1 = 5; }
  )");
  const auto r = abs_run(p);
  const lang::Stmt* alloc_stmt = p.module->find_labeled("sAl");
  const lang::Stmt* use_stmt = p.module->find_labeled("sUse");
  ASSERT_NE(alloc_stmt, nullptr);
  ASSERT_NE(use_stmt, nullptr);
  std::uint32_t slot = 0;
  for (const auto& g : p.lowered->globals()) {
    if (p.module->interner().spelling(g.name) == "p1") slot = g.slot;
  }
  bool checked = false;
  for (const auto& [point, store] : r.point_stores) {
    const auto& instr = p.lowered->proc(point.first).code[point.second];
    if (instr.stmt == use_stmt) {
      checked = true;
      EXPECT_TRUE(store.get(AbsLoc::global(slot)).ptrs.contains(AbsLoc::heap(alloc_stmt->id())));
    }
  }
  EXPECT_TRUE(checked);
}

TEST(Absem, LambdaCapturedVariableSummarized) {
  const auto& p = compiled(R"(
    var r;
    fun main() {
      var c = 0;
      var bump = fun () { c = c + 1; };
      bump();
      r = c;
    }
  )");
  const auto r = abs_run(p);
  EXPECT_FALSE(r.truncated);
  // The lambda's write lands on main's frame slot for c.
  const std::uint32_t main_id = p.lowered->entry_proc();
  bool lambda_writes_mains_frame = false;
  for (const auto& [proc, writes] : r.writes_direct) {
    if (proc == main_id) continue;
    for (const AbsLoc& loc : writes) {
      if (loc.kind == AbsLoc::Kind::Frame && loc.a == main_id) {
        lambda_writes_mains_frame = true;
      }
    }
  }
  EXPECT_TRUE(lambda_writes_mains_frame);
}

TEST(Absem, BranchPruningOnConstants) {
  const auto& p = compiled(R"(
    var x;
    fun main() {
      if (1 < 2) { x = 1; } else { sDead: x = 2; }
    }
  )");
  const auto r = abs_run(p);
  const lang::Stmt* dead = p.module->find_labeled("sDead");
  ASSERT_NE(dead, nullptr);
  for (const auto& [point, store] : r.point_stores) {
    const auto& instr = p.lowered->proc(point.first).code[point.second];
    EXPECT_NE(instr.stmt, dead) << "dead branch was explored";
  }
}

TEST(Absem, IntervalDomainBoundsLoopCounter) {
  const auto& p = compiled(R"(
    var x;
    fun main() {
      var i = 0;
      while (i < 10) { i = i + 1; }
      sQ: x = i;
    }
  )");
  const auto r = abs_run<Interval>(p);
  EXPECT_FALSE(r.truncated);
  // i stays non-negative (widening loses the upper bound, keeps the lower).
  const std::uint32_t main_id = p.lowered->entry_proc();
  const lang::Stmt* sq = p.module->find_labeled("sQ");
  for (const auto& [point, store] : r.point_stores) {
    const auto& instr = p.lowered->proc(point.first).code[point.second];
    if (instr.stmt == sq) {
      for (const auto& [loc, v] : store.entries()) {
        if (loc.kind == AbsLoc::Kind::Frame && loc.a == main_id && !v.num.is_bottom()) {
          EXPECT_GE(v.num.lo(), 0);
        }
      }
    }
  }
}

/// check's alarm pass runs with folding_facts off. It must find exactly the
/// facts check reads that the default pass finds, over the same states, and
/// leave every folding-level member empty.
TEST(AbsemLean, MatchesTheDefaultPassOnWhatCheckReads) {
  std::vector<std::pair<std::string, std::string>> programs;
  for (const auto& entry : std::filesystem::directory_iterator(COPAR_SAMPLES_DIR)) {
    if (entry.path().extension() != ".cop") continue;
    std::ifstream in(entry.path());
    std::stringstream src;
    src << in.rdbuf();
    programs.emplace_back(entry.path().filename().string(), src.str());
  }
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    programs.emplace_back("seed " + std::to_string(seed), workload::random_program(seed));
  }
  workload::RandomOptions wide;
  wide.num_branches = 3;
  wide.max_branch_stmts = 3;
  for (std::uint64_t seed = 1000; seed < 1050; ++seed) {
    programs.emplace_back("wide seed " + std::to_string(seed),
                          workload::random_program(seed, wide));
  }
  workload::RandomOptions doall;
  doall.use_doall = true;
  doall.max_branch_stmts = 3;
  for (std::uint64_t seed = 2000; seed < 2050; ++seed) {
    programs.emplace_back("doall seed " + std::to_string(seed),
                          workload::random_program(seed, doall));
  }
  for (std::size_t n = 3; n <= 5; ++n) {
    programs.emplace_back("philosophers " + std::to_string(n), workload::dining_philosophers(n));
  }

  for (const auto& [name, source] : programs) {
    const auto& p = compiled(source);
    AbsOptions lean_opts;
    lean_opts.folding_facts = false;
    const AbsResult<Interval> full = AbsExplorer<Interval>(*p.lowered, AbsOptions{}).run();
    const AbsResult<Interval> lean = AbsExplorer<Interval>(*p.lowered, lean_opts).run();
    EXPECT_EQ(lean.may_faults, full.may_faults) << name;
    EXPECT_EQ(lean.may_fail_asserts, full.may_fail_asserts) << name;
    EXPECT_EQ(lean.uninit_reads, full.uninit_reads) << name;
    EXPECT_EQ(lean.reached_stmts, full.reached_stmts) << name;
    EXPECT_EQ(lean.site_sizes, full.site_sizes) << name;
    EXPECT_EQ(lean.truncated, full.truncated) << name;
    EXPECT_EQ(lean.num_states, full.num_states) << name;

    EXPECT_TRUE(lean.mhp.empty()) << name;
    EXPECT_TRUE(lean.point_stores.empty()) << name;
    EXPECT_TRUE(lean.reads_direct.empty()) << name;
    EXPECT_TRUE(lean.writes_direct.empty()) << name;
    EXPECT_TRUE(lean.stmt_reads.empty()) << name;
    EXPECT_TRUE(lean.stmt_writes.empty()) << name;
    EXPECT_TRUE(lean.call_edges.empty()) << name;
    EXPECT_TRUE(lean.fork_edges.empty()) << name;
    EXPECT_TRUE(lean.stmt_callees.empty()) << name;
    // The default pass does collect them, so the emptiness above is the option's.
    EXPECT_FALSE(full.point_stores.empty()) << name;
  }
  EXPECT_GE(programs.size(), 11u + 300u + 3u);
}

}  // namespace
}  // namespace copar::absem
