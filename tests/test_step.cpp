// Transition-relation tests: calls/returns, cobegin fork/join, locks,
// asserts, canonicalization.
#include <gtest/gtest.h>

#include <string>

#include "src/sem/cowstats.h"
#include "tests/testutil.h"

namespace copar::sem {
namespace {

using testutil::global_int;
using testutil::run_deterministic;
using testutil::run_source;

TEST(Step, CallAndReturnValue) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var r;
    fun add(a, b) { return a + b; }
    fun main() { r = add(2, 3); }
  )", prog);
  EXPECT_EQ(global_int(cfg, "r"), 5);
  EXPECT_TRUE(cfg.all_done());
  EXPECT_TRUE(cfg.faults.empty());
}

TEST(Step, ImplicitReturnYieldsNull) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var r = 7;
    fun f() { skip; }
    fun main() { r = f(); }
  )", prog);
  auto v = cfg.global_value("r");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->is_null());
}

TEST(Step, RecursionComputesFactorial) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var r;
    fun fact(n) {
      var t;
      if (n <= 1) { return 1; }
      t = fact(n - 1);
      return n * t;
    }
    fun main() { r = fact(6); }
  )", prog);
  EXPECT_EQ(global_int(cfg, "r"), 720);
}

TEST(Step, FirstClassFunctions) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var r;
    fun inc(n) { return n + 1; }
    fun twice(f, x) { var t; t = f(x); t = f(t); return t; }
    fun main() { r = twice(inc, 5); }
  )", prog);
  EXPECT_EQ(global_int(cfg, "r"), 7);
}

TEST(Step, ClosuresCaptureByReference) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var r;
    fun main() {
      var counter = 0;
      var bump = fun () { counter = counter + 1; return counter; };
      bump();
      bump();
      r = bump();
    }
  )", prog);
  EXPECT_EQ(global_int(cfg, "r"), 3);
}

TEST(Step, CobeginRunsAllBranches) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var x; var y; var z;
    fun main() { cobegin { x = 1; } || { y = 2; } || { z = 3; } coend; }
  )", prog);
  EXPECT_EQ(global_int(cfg, "x"), 1);
  EXPECT_EQ(global_int(cfg, "y"), 2);
  EXPECT_EQ(global_int(cfg, "z"), 3);
  EXPECT_TRUE(cfg.all_done());
}

TEST(Step, CobeginJoinBlocksParent) {
  auto prog = compile(R"(
    var x;
    fun main() { cobegin { x = 1; } || { x = 2; } coend; x = 3; }
  )");
  Configuration cfg = Configuration::initial(*prog->lowered);
  cfg = apply_action(cfg, 0);  // fork
  ASSERT_EQ(cfg.processes.size(), 3u);
  const ActionInfo parent = action_info(cfg, 0);
  EXPECT_EQ(parent.kind, ActionKind::Join);
  EXPECT_FALSE(parent.enabled);
  cfg = apply_action(cfg, 1);  // child 1 assigns and exits (exit folded)
  EXPECT_FALSE(action_info(cfg, 0).enabled);
  cfg = apply_action(cfg, 2);  // child 2
  EXPECT_TRUE(action_info(cfg, 0).enabled);
}

TEST(Step, BranchesShareParentLocals) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var r;
    fun main() {
      var t = 0;
      cobegin { t = t + 1; } || skip; coend;
      r = t;
    }
  )", prog);
  EXPECT_EQ(global_int(cfg, "r"), 1);
}

TEST(Step, NestedCobegin) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var a; var b; var c;
    fun main() {
      cobegin {
        cobegin { a = 1; } || { b = 2; } coend;
      } || { c = 3; } coend;
    }
  )", prog);
  EXPECT_EQ(global_int(cfg, "a"), 1);
  EXPECT_EQ(global_int(cfg, "b"), 2);
  EXPECT_EQ(global_int(cfg, "c"), 3);
}

TEST(Step, CobeginInsideCalledFunction) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var r;
    fun par() {
      var t = 0;
      cobegin { t = t + 1; } || { t = t + 10; } coend;
      return t;
    }
    fun main() { r = par(); }
  )", prog);
  // Under the deterministic schedule both increments apply in some order.
  EXPECT_EQ(global_int(cfg, "r"), 11);
}

TEST(Step, LockProvidesMutualExclusion) {
  auto prog = compile(R"(
    var m; var x;
    fun main() {
      cobegin { lock(m); x = 1; unlock(m); } || { lock(m); x = 2; unlock(m); } coend;
    }
  )");
  Configuration cfg = Configuration::initial(*prog->lowered);
  cfg = apply_action(cfg, 0);  // fork
  cfg = apply_action(cfg, 1);  // p1: lock(m)
  const ActionInfo p2 = action_info(cfg, 2);
  EXPECT_EQ(p2.kind, ActionKind::Lock);
  EXPECT_FALSE(p2.enabled);  // blocked on m
  cfg = apply_action(cfg, 1);  // p1: x = 1
  cfg = apply_action(cfg, 1);  // p1: unlock(m); thread exit folded
  EXPECT_TRUE(action_info(cfg, 2).enabled);
}

TEST(Step, UnlockWithoutHoldFaults) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source("var m; fun main() { unlock(m); }", prog);
  ASSERT_EQ(cfg.faults.size(), 1u);
  EXPECT_EQ(static_cast<Fault>(cfg.faults.begin()->second), Fault::UnlockNotHeld);
}

TEST(Step, DeadlockDetected) {
  auto prog = compile(R"(
    var m1; var m2;
    fun main() {
      cobegin
        { lock(m1); lock(m2); unlock(m2); unlock(m1); }
      ||
        { lock(m2); lock(m1); unlock(m1); unlock(m2); }
      coend;
    }
  )");
  Configuration cfg = Configuration::initial(*prog->lowered);
  cfg = apply_action(cfg, 0);  // fork
  cfg = apply_action(cfg, 1);  // p1: lock(m1)
  cfg = apply_action(cfg, 2);  // p2: lock(m2)
  EXPECT_TRUE(is_deadlock(cfg));
  EXPECT_GT(cfg.num_live(), 0u);
}

TEST(Step, AssertViolationRecordedAndExecutionContinues) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var x;
    fun main() { sA: assert(x == 1); x = 5; }
  )", prog);
  EXPECT_EQ(cfg.violations.size(), 1u);
  EXPECT_EQ(global_int(cfg, "x"), 5);  // execution continued
}

TEST(Step, WhileLoopTerminates) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    var s;
    fun main() {
      var i = 0;
      while (i < 5) { s = s + i; i = i + 1; }
    }
  )", prog);
  EXPECT_EQ(global_int(cfg, "s"), 10);
}

TEST(Step, CanonicalKeyIdentifiesEqualStates) {
  auto prog = compile(R"(
    var x; var y;
    fun main() { cobegin { x = 1; } || { y = 2; } coend; }
  )");
  // Both interleavings reach the same final configuration.
  Configuration a = Configuration::initial(*prog->lowered);
  a = apply_action(a, 0);
  Configuration b = a;
  a = apply_action(a, 1);
  a = apply_action(a, 2);
  a = apply_action(a, 0);  // join
  b = apply_action(b, 2);
  b = apply_action(b, 1);
  b = apply_action(b, 0);  // join
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
}

TEST(Step, CanonicalKeyDistinguishesDifferentStores) {
  auto prog = compile(R"(
    var x;
    fun main() { cobegin { x = 1; } || { x = 2; } coend; }
  )");
  Configuration a = Configuration::initial(*prog->lowered);
  a = apply_action(a, 0);
  Configuration b = a;
  a = apply_action(a, 1);  // x = 1
  b = apply_action(b, 2);  // x = 2
  EXPECT_NE(a.canonical_key(), b.canonical_key());
}

TEST(Step, CanonicalKeyGarbageCollects) {
  // A dropped allocation must not affect state identity.
  auto prog = compile(R"(
    var x;
    fun main() {
      var p = alloc(1);
      p = null;
      x = 1;
    }
  )");
  Configuration a = Configuration::initial(*prog->lowered);
  a = apply_action(a, 0);  // alloc
  a = apply_action(a, 0);  // p = null
  a = apply_action(a, 0);  // x = 1

  auto prog2 = compile(R"(
    var x;
    fun main() {
      var p = alloc(1);
      p = null;
      x = 1;
    }
  )");
  Configuration b = Configuration::initial(*prog2->lowered);
  b = apply_action(b, 0);
  b = apply_action(b, 0);
  b = apply_action(b, 0);
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
}

TEST(Step, ProcedureStringsTrackMovements) {
  auto prog = compile(R"(
    var r;
    fun g() { return 1; }
    fun f() { r = g(); return 2; }
    fun main() { r = f(); }
  )");
  Configuration cfg = Configuration::initial(*prog->lowered);
  const ProcString at_start = cfg.processes[0].pstr;
  cfg = apply_action(cfg, 0);  // call f
  EXPECT_EQ(cfg.processes[0].pstr.size(), at_start.size() + 1);
  cfg = apply_action(cfg, 0);  // call g
  EXPECT_EQ(cfg.processes[0].pstr.size(), at_start.size() + 2);
  cfg = apply_action(cfg, 0);  // return from g (cancels)
  EXPECT_EQ(cfg.processes[0].pstr.size(), at_start.size() + 1);
  cfg = apply_action(cfg, 0);  // return from f
  EXPECT_EQ(cfg.processes[0].pstr, at_start);
}

TEST(Step, BirthdatesRecordForkContext) {
  auto prog = compile(R"(
    var p;
    fun main() { cobegin { p = alloc(1); } || skip; coend; }
  )");
  Configuration cfg = Configuration::initial(*prog->lowered);
  cfg = apply_action(cfg, 0);  // fork
  cfg = apply_action(cfg, 1);  // alloc in branch 0
  bool found = false;
  for (ObjId o = 0; o < cfg.store.num_objects(); ++o) {
    const Object& obj = cfg.store.object(o);
    if (obj.obj_kind == ObjKind::Heap) {
      found = true;
      EXPECT_TRUE(obj.birth.crosses_thread());
    }
  }
  EXPECT_TRUE(found);
}

TEST(Step, ArityMismatchFaults) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source(R"(
    fun f(a, b) { return a; }
    fun main() { f(1); }
  )", prog);
  ASSERT_EQ(cfg.faults.size(), 1u);
  EXPECT_EQ(static_cast<Fault>(cfg.faults.begin()->second), Fault::ArityMismatch);
}

TEST(Step, CallingNonFunctionFaults) {
  const CompiledProgram* prog = nullptr;
  const Configuration cfg = run_source("var x; fun main() { x = 3; x(); }", prog);
  ASSERT_EQ(cfg.faults.size(), 1u);
  EXPECT_EQ(static_cast<Fault>(cfg.faults.begin()->second), Fault::NotAFunction);
}

/// Runs the one-process program until its store holds `objects` objects,
/// then fires the next action, which must be a one-cell global assign, and
/// returns how many objects that transition cloned.
std::uint64_t objects_copied_by_assign(const std::string& source, std::size_t objects) {
  const auto prog = compile(source);
  Configuration cfg = Configuration::initial(*prog->lowered);
  for (int guard = 0; cfg.store.num_objects() != objects; ++guard) {
    const ActionInfo info = action_info(cfg, 0);
    if (guard == 100000 || !info.exists || !info.enabled) {
      ADD_FAILURE() << "store never held " << objects << " objects";
      return 0;
    }
    cfg = apply_action(cfg, info);
  }
  const ActionInfo info = action_info(cfg, 0);
  EXPECT_TRUE(info.exists && info.enabled && info.kind == ActionKind::Assign);
  const std::uint64_t before = cowstats::snapshot().objects_copied;
  const Configuration succ = apply_action(cfg, info);
  return cowstats::snapshot().objects_copied - before;
}

// Copy-on-write flatness: a transition clones only the objects it writes,
// so a one-cell assign costs the same clones whatever else the store holds.
TEST(Step, AssignCopiesAreFlatInObjectWidth) {
  const auto wide = [](int cells) {
    // globals + main frame + one `cells`-wide heap object
    return objects_copied_by_assign("var a; var i = 0;\nfun main() {\n  a = alloc(" +
                                        std::to_string(cells) + ");\n  i = 1;\n}\n",
                                    3);
  };
  const std::uint64_t narrow = wide(4);
  EXPECT_GE(narrow, 1u);
  EXPECT_LT(narrow, 3u);  // the untouched heap object stays shared
  EXPECT_EQ(wide(4096), narrow);
}

TEST(Step, AssignCopiesAreFlatInObjectCount) {
  const auto many = [](std::size_t n) {
    return objects_copied_by_assign("var a; var i = 0; var n = " + std::to_string(n) +
                                        ";\nfun main() {\n  while (i < n) { a = alloc(4); "
                                        "i = i + 1; }\n  i = 1;\n}\n",
                                    2 + n);
  };
  const std::uint64_t few = many(4);
  EXPECT_GE(few, 1u);
  EXPECT_EQ(many(64), few);
}

}  // namespace
}  // namespace copar::sem
