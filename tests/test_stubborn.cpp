// Stubborn-set reduction: must preserve the exact set of result
// configurations (the paper's central claim for §2) while shrinking the
// explored space.
#include <gtest/gtest.h>

#include "src/explore/explorer.h"
#include "src/explore/stubborn.h"
#include "src/sem/program.h"

namespace copar::explore {
namespace {

struct BothResults {
  ExploreResult full;
  ExploreResult stubborn;
};

BothResults run_both(std::string_view src) {
  static std::vector<std::unique_ptr<CompiledProgram>> alive;
  alive.push_back(compile(src));
  const sem::LoweredProgram& prog = *alive.back()->lowered;
  ExploreOptions full_opts;
  full_opts.reduction = Reduction::Full;
  ExploreOptions stub_opts;
  stub_opts.reduction = Reduction::Stubborn;
  return BothResults{explore(prog, full_opts), explore(prog, stub_opts)};
}

void expect_same_terminals(const BothResults& r) {
  EXPECT_EQ(r.full.terminal_keys(), r.stubborn.terminal_keys());
  EXPECT_EQ(r.full.deadlock_found, r.stubborn.deadlock_found);
  EXPECT_EQ(r.full.violations, r.stubborn.violations);
  EXPECT_EQ(r.full.faults, r.stubborn.faults);
}

TEST(Stubborn, IndependentThreadsCollapseToOneOrder) {
  const BothResults r = run_both(R"(
    var x; var y; var z;
    fun main() {
      cobegin { x = 1; x = 2; } || { y = 1; y = 2; } || { z = 1; z = 2; } coend;
    }
  )");
  expect_same_terminals(r);
  // Fully independent threads: the reduced space is linear in total actions
  // (init, fork, 6 assigns, join, return = 10), the full space is the
  // product of the three threads' positions.
  EXPECT_EQ(r.stubborn.num_configs, 10u);
  EXPECT_LE(r.stubborn.num_configs, r.full.num_configs / 3);
}

TEST(Stubborn, ConflictingWritesKeepAllOutcomes) {
  const BothResults r = run_both(R"(
    var x;
    fun main() { cobegin { x = 1; } || { x = 2; } coend; }
  )");
  expect_same_terminals(r);
  EXPECT_EQ(r.stubborn.terminal_int_values("x"), (std::set<std::int64_t>{1, 2}));
}

TEST(Stubborn, ShashaSnirOutcomesPreserved) {
  const BothResults r = run_both(R"(
    var x; var y; var a; var b;
    fun main() {
      cobegin { x = 1; a = y; } || { y = 1; b = x; } coend;
    }
  )");
  expect_same_terminals(r);
  EXPECT_EQ(r.stubborn.terminals.size(), 3u);
}

TEST(Stubborn, FutureConflictsAreSeen) {
  // The first action of the right branch (t = 1, thread-local... but t is a
  // shared local here) does not conflict with x = 1; the *second* does.
  // A naive next-action-only reduction would lose the outcome where the
  // right branch runs entirely after the left read.
  const BothResults r = run_both(R"(
    var x; var a;
    fun main() {
      var t;
      cobegin { a = x; } || { t = 1; x = t + 1; } coend;
    }
  )");
  expect_same_terminals(r);
  EXPECT_EQ(r.stubborn.terminal_int_values("a"), (std::set<std::int64_t>{0, 2}));
}

TEST(Stubborn, LockProgramsPreserved) {
  const BothResults r = run_both(R"(
    var m; var x;
    fun main() {
      var t1; var t2;
      cobegin
        { lock(m); t1 = x; x = t1 + 1; unlock(m); }
      ||
        { lock(m); t2 = x; x = t2 + 1; unlock(m); }
      coend;
    }
  )");
  expect_same_terminals(r);
  EXPECT_EQ(r.stubborn.terminal_int_values("x"), (std::set<std::int64_t>{2}));
}

TEST(Stubborn, DeadlocksPreserved) {
  const BothResults r = run_both(R"(
    var m1; var m2;
    fun main() {
      cobegin
        { lock(m1); lock(m2); unlock(m2); unlock(m1); }
      ||
        { lock(m2); lock(m1); unlock(m1); unlock(m2); }
      coend;
    }
  )");
  expect_same_terminals(r);
  EXPECT_TRUE(r.stubborn.deadlock_found);
}

TEST(Stubborn, BusyWaitCycleProvisoKeepsTerminal) {
  // Without the cycle proviso, a reduced exploration could spin in the
  // waiting thread forever and "ignore" the flag writer.
  const BothResults r = run_both(R"(
    var flag; var r;
    fun main() {
      cobegin
        { while (flag == 0) { skip; } r = 1; }
      ||
        { flag = 1; }
      coend;
    }
  )");
  expect_same_terminals(r);
  EXPECT_EQ(r.stubborn.terminal_int_values("r"), (std::set<std::int64_t>{1}));
}

TEST(Stubborn, CallsWithSideEffectsPreserved) {
  const BothResults r = run_both(R"(
    var x; var a;
    fun bump() { x = x + 1; }
    fun main() {
      cobegin { bump(); } || { a = x; } coend;
    }
  )");
  expect_same_terminals(r);
  EXPECT_EQ(r.stubborn.terminal_int_values("a"), (std::set<std::int64_t>{0, 1}));
}

TEST(Stubborn, PointerAliasingPreserved) {
  const BothResults r = run_both(R"(
    var p; var q; var a;
    fun main() {
      p = alloc(1);
      q = p;
      cobegin { *p = 1; } || { a = *q; } coend;
    }
  )");
  expect_same_terminals(r);
  EXPECT_EQ(r.stubborn.terminal_int_values("a"), (std::set<std::int64_t>{0, 1}));
}

TEST(Stubborn, NestedCobeginPreserved) {
  const BothResults r = run_both(R"(
    var x;
    fun main() {
      cobegin
        { cobegin { x = x + 1; } || { x = x + 10; } coend; }
      ||
        { x = 100; }
      coend;
    }
  )");
  expect_same_terminals(r);
}

TEST(Stubborn, AsymmetricReadersAndWriter) {
  const BothResults r = run_both(R"(
    var x; var a; var b;
    fun main() {
      cobegin { a = x; } || { b = x; } || { x = 7; } coend;
    }
  )");
  expect_same_terminals(r);
  // All four read/read-order outcomes: (0,0),(0,7),(7,0),(7,7).
  EXPECT_EQ(r.full.terminals.size(), 4u);
}

TEST(Stubborn, ReductionStatisticsExposed) {
  const BothResults r = run_both(R"(
    var x; var y;
    fun main() { cobegin { x = 1; x = 2; } || { y = 1; y = 2; } coend; }
  )");
  EXPECT_GT(r.stubborn.stats.get("stubborn_steps"), 0u);
  EXPECT_GT(r.stubborn.stats.get("stubborn_singletons"), 0u);
}

TEST(Stubborn, PidsPast64KeepTerminalsAtOneAndFourThreads) {
  // Pids are never reused: 32 sequential cobegins burn pids 1..64, so the
  // last cobegin's branches run with pids past 64 (the closure indexes live
  // processes by position, not by pid). Two branches conflict on x, the
  // third is independent.
  std::string src = "var x; var y;\nfun main() {\n";
  for (int i = 0; i < 32; ++i) src += "  cobegin { skip; } || { skip; } coend;\n";
  src += "  cobegin { x = 1; x = 2; } || { x = 3; } || { y = 1; y = 2; } coend;\n}\n";
  const auto prog = compile(src);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExploreOptions full_opts;
    full_opts.threads = threads;
    ExploreOptions stub_opts = full_opts;
    stub_opts.reduction = Reduction::Stubborn;
    const ExploreResult full = explore(*prog->lowered, full_opts);
    const ExploreResult stub = explore(*prog->lowered, stub_opts);
    ASSERT_FALSE(full.truncated);
    ASSERT_FALSE(stub.truncated);
    EXPECT_EQ(stub.terminal_keys(), full.terminal_keys());
    EXPECT_EQ(stub.terminal_int_values("x"), (std::set<std::int64_t>{2, 3}));
    EXPECT_LT(stub.num_configs, full.num_configs);
  }
}

TEST(Stubborn, ActionsConflictHelper) {
  auto prog = compile(R"(
    var x;
    fun main() { cobegin { x = 1; } || { x = 2; } coend; }
  )");
  sem::Configuration cfg = sem::Configuration::initial(*prog->lowered);
  cfg = sem::apply_action(cfg, 0);  // fork
  const sem::ActionInfo a = sem::action_info(cfg, 1);
  const sem::ActionInfo b = sem::action_info(cfg, 2);
  EXPECT_TRUE(actions_conflict(a, b));  // write/write on x
}

TEST(Stubborn, NonConflictingActionsDoNotConflict) {
  auto prog = compile(R"(
    var x; var y;
    fun main() { cobegin { x = 1; } || { y = 2; } coend; }
  )");
  sem::Configuration cfg = sem::Configuration::initial(*prog->lowered);
  cfg = sem::apply_action(cfg, 0);
  EXPECT_FALSE(actions_conflict(sem::action_info(cfg, 1), sem::action_info(cfg, 2)));
}

}  // namespace
}  // namespace copar::explore
