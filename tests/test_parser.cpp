#include <gtest/gtest.h>

#include <string>

#include "src/lang/parser.h"
#include "src/lang/printer.h"

namespace copar::lang {
namespace {

std::unique_ptr<Module> ok(std::string_view src) {
  DiagnosticEngine diags;
  auto m = parse_program(src, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_string();
  return m;
}

void bad(std::string_view src, std::string_view needle) {
  DiagnosticEngine diags;
  (void)parse_program(src, diags);
  ASSERT_TRUE(diags.has_errors()) << "expected parse error for: " << src;
  EXPECT_NE(diags.to_string().find(needle), std::string::npos)
      << "diagnostics were:\n" << diags.to_string();
}

TEST(Parser, EmptyModule) {
  auto m = ok("");
  EXPECT_TRUE(m->globals().empty());
  EXPECT_TRUE(m->functions().empty());
}

TEST(Parser, GlobalsWithAndWithoutInit) {
  auto m = ok("var a; var b = 3;");
  ASSERT_EQ(m->globals().size(), 2u);
  EXPECT_EQ(m->globals()[0].init, nullptr);
  ASSERT_NE(m->globals()[1].init, nullptr);
  EXPECT_EQ(m->globals()[1].init->kind(), ExprKind::IntLit);
}

TEST(Parser, FunctionWithParams) {
  auto m = ok("fun f(a, b, c) { return a; }");
  const FunDecl* f = m->find_function("f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->params().size(), 3u);
}

TEST(Parser, AssignmentForms) {
  auto m = ok(R"(
    var x; var p;
    fun main() {
      x = 1;
      *p = 2;
      p[3] = 4;
    }
  )");
  const auto& body = m->find_function("main")->body();
  ASSERT_EQ(body.stmts().size(), 3u);
  for (const auto& s : body.stmts()) EXPECT_EQ(s->kind(), StmtKind::Assign);
}

TEST(Parser, AllocOnlyAsWholeRhs) {
  auto m = ok("var p; fun main() { p = alloc(2); }");
  EXPECT_EQ(m->find_function("main")->body().stmts()[0]->kind(), StmtKind::Alloc);
  bad("var p; fun main() { p = alloc(2) + 1; }", "alloc");
  bad("var p; fun main() { p = 1 + alloc(2); }", "alloc");
}

TEST(Parser, VarInitDesugarsToDeclPlusAssign) {
  auto m = ok("fun main() { var x = 5; }");
  const auto& stmts = m->find_function("main")->body().stmts();
  ASSERT_EQ(stmts.size(), 2u);
  EXPECT_EQ(stmts[0]->kind(), StmtKind::VarDecl);
  EXPECT_EQ(stmts[1]->kind(), StmtKind::Assign);
}

TEST(Parser, VarInitWithAllocAndCall) {
  auto m = ok(R"(
    fun f() { return 1; }
    fun main() { var p = alloc(1); var x = f(); }
  )");
  const auto& stmts = m->find_function("main")->body().stmts();
  ASSERT_EQ(stmts.size(), 4u);
  EXPECT_EQ(stmts[1]->kind(), StmtKind::Alloc);
  EXPECT_EQ(stmts[3]->kind(), StmtKind::Call);
}

TEST(Parser, CallStatements) {
  auto m = ok(R"(
    var x;
    fun f(a) { return a; }
    fun main() { f(1); x = f(2); }
  )");
  const auto& stmts = m->find_function("main")->body().stmts();
  ASSERT_EQ(stmts.size(), 2u);
  const auto& bare = stmt_cast<CallStmt>(*stmts[0]);
  EXPECT_EQ(bare.dst(), nullptr);
  const auto& with_dst = stmt_cast<CallStmt>(*stmts[1]);
  ASSERT_NE(with_dst.dst(), nullptr);
  EXPECT_EQ(with_dst.args().size(), 1u);
}

TEST(Parser, CallsBannedInsideExpressions) {
  bad("var x; fun f() { return 1; } fun main() { x = f() + 1; }", "expected");
  bad("var x; fun f() { return 1; } fun main() { x = 1 + f(); }", "call target");
}

TEST(Parser, CobeginBranches) {
  auto m = ok(R"(
    var x; var y;
    fun main() {
      cobegin { x = 1; } || y = 2; || { skip; skip; } coend;
    }
  )");
  const auto& cb = stmt_cast<CobeginStmt>(*m->find_function("main")->body().stmts()[0]);
  EXPECT_EQ(cb.branches().size(), 3u);
}

TEST(Parser, NestedCobegin) {
  auto m = ok(R"(
    var x;
    fun main() {
      cobegin { cobegin x = 1; || x = 2; coend; } || x = 3; coend;
    }
  )");
  EXPECT_EQ(m->find_function("main")->body().stmts()[0]->kind(), StmtKind::Cobegin);
}

TEST(Parser, StatementLabels) {
  auto m = ok(R"(
    var x; var y;
    fun main() {
      s1: x = 1;
      s2: y = x;
    }
  )");
  ASSERT_NE(m->find_labeled("s1"), nullptr);
  ASSERT_NE(m->find_labeled("s2"), nullptr);
  EXPECT_EQ(m->find_labeled("s1")->kind(), StmtKind::Assign);
  EXPECT_EQ(m->find_labeled("nope"), nullptr);
}

TEST(Parser, IfElseWhile) {
  auto m = ok(R"(
    var x;
    fun main() {
      if (x > 0) { x = 1; } else x = 2;
      while (x < 10) x = x + 1;
    }
  )");
  const auto& stmts = m->find_function("main")->body().stmts();
  EXPECT_EQ(stmts[0]->kind(), StmtKind::If);
  EXPECT_EQ(stmts[1]->kind(), StmtKind::While);
}

TEST(Parser, PrecedenceMulOverAdd) {
  auto m = ok("var x; fun main() { x = 1 + 2 * 3; }");
  const auto& a = stmt_cast<AssignStmt>(*m->find_function("main")->body().stmts()[0]);
  const auto& add = expr_cast<Binary>(a.rhs());
  EXPECT_EQ(add.op(), BinOp::Add);
  EXPECT_EQ(expr_cast<Binary>(add.rhs()).op(), BinOp::Mul);
}

TEST(Parser, PrecedenceCmpOverAnd) {
  auto m = ok("var x; fun main() { x = 1 < 2 and 3 < 4; }");
  const auto& a = stmt_cast<AssignStmt>(*m->find_function("main")->body().stmts()[0]);
  EXPECT_EQ(expr_cast<Binary>(a.rhs()).op(), BinOp::And);
}

TEST(Parser, UnaryOperators) {
  auto m = ok("var x; var p; fun main() { x = -x; x = not x; x = *p; p = &x; }");
  const auto& stmts = m->find_function("main")->body().stmts();
  EXPECT_EQ(stmt_cast<AssignStmt>(*stmts[0]).rhs().kind(), ExprKind::Unary);
  EXPECT_EQ(stmt_cast<AssignStmt>(*stmts[1]).rhs().kind(), ExprKind::Unary);
  EXPECT_EQ(stmt_cast<AssignStmt>(*stmts[2]).rhs().kind(), ExprKind::Deref);
  EXPECT_EQ(stmt_cast<AssignStmt>(*stmts[3]).rhs().kind(), ExprKind::AddrOf);
}

TEST(Parser, FunctionLiteral) {
  auto m = ok("var f; fun main() { f = fun (a) { return a; }; }");
  const auto& a = stmt_cast<AssignStmt>(*m->find_function("main")->body().stmts()[0]);
  EXPECT_EQ(a.rhs().kind(), ExprKind::FunLit);
  // The lambda is registered in the module's function list.
  EXPECT_EQ(m->functions().size(), 2u);
}

TEST(Parser, LockUnlockSkipAssert) {
  auto m = ok(R"(
    var m1; var x;
    fun main() {
      lock(m1);
      x = 1;
      unlock(m1);
      skip;
      assert(x == 1);
    }
  )");
  const auto& stmts = m->find_function("main")->body().stmts();
  EXPECT_EQ(stmts[0]->kind(), StmtKind::Lock);
  EXPECT_EQ(stmts[2]->kind(), StmtKind::Unlock);
  EXPECT_EQ(stmts[3]->kind(), StmtKind::Skip);
  EXPECT_EQ(stmts[4]->kind(), StmtKind::Assert);
}

TEST(Parser, LockTargetMustBeLvalue) {
  bad("fun main() { lock(1 + 2); }", "lvalue");
}

TEST(Parser, AssignTargetMustBeLvalue) {
  bad("var x; fun main() { (x + 1) = 2; }", "lvalue");
}

TEST(Parser, AddrOfRequiresLvalue) {
  bad("var p; fun main() { p = &(1 + 2); }", "lvalue");
}

TEST(Parser, MissingSemicolonReported) {
  bad("var x; fun main() { x = 1 }", "';'");
}

TEST(Parser, PointerArithmeticExpressions) {
  auto m = ok("var p; var x; fun main() { x = *(p + 1); }");
  EXPECT_EQ(m->find_function("main")->body().stmts().size(), 1u);
}

// --- nesting limit ----------------------------------------------------------

std::string repeat(std::string_view s, std::size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += s;
  return out;
}

/// Parses `src`, expecting exactly one error: nesting-too-deep.
void too_deep(const std::string& src) {
  DiagnosticEngine diags;
  (void)parse_program(src, diags);
  ASSERT_EQ(diags.all().size(), 1u) << diags.to_string();
  EXPECT_EQ(diags.all()[0].code, "nesting-too-deep");
  EXPECT_NE(diags.to_string().find("[nesting-too-deep]"), std::string::npos);
}

TEST(ParserNesting, HundredThousandParenthesesStopAtTheLimit) {
  constexpr std::size_t kLevels = 100000;
  too_deep("var x; fun main() { x = " + repeat("(", kLevels) + "1" + repeat(")", kLevels) +
           "; }");
}

TEST(ParserNesting, BlocksUnaryOperatorsAndIndexesAreBounded) {
  constexpr std::size_t kLevels = 100000;
  too_deep("fun main() " + repeat("{", kLevels) + repeat("}", kLevels));
  too_deep("fun main() { " + repeat("while (1) ", kLevels) + "skip; }");
  too_deep("var x; fun main() { x = " + repeat("- ", kLevels) + "1; }");
  too_deep("var a; fun main() { a = " + repeat("a[", kLevels) + "0" + repeat("]", kLevels) +
           "; }");
}

TEST(ParserNesting, OperatorChainsCountTheirLength) {
  // A left-associative chain nests as deep as it is long.
  too_deep("var x; fun main() { x = 1" + repeat(" + 1", 100000) + "; }");
  // Chains pushed down by enclosing chains add up.
  too_deep("var x; fun main() { x = " + repeat("(", 2) + "1" + repeat(" * 1", 100) + ")" +
           repeat(" + 1", 100) + ")" + repeat(" - 1", 100) + "; }");
  // So do function literals whose bodies are deep.
  too_deep("var f; fun main() { f = fun () { var y = 1" + repeat(" + 1", 200) + "; } " +
           repeat(" + 1", 100) + "; }");
}

TEST(ParserNesting, ProgramsBelowTheLimitParse) {
  constexpr std::size_t kLevels = Parser::kMaxNesting / 2;
  ok("var x; fun main() { x = " + repeat("(", kLevels) + "1" + repeat(")", kLevels) + "; }");
  ok("var x; fun main() { x = 1" + repeat(" + 1", kLevels) + "; }");
  ok("fun main() " + repeat("{", kLevels) + repeat("}", kLevels));
}

}  // namespace
}  // namespace copar::lang
