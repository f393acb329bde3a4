// Recursive-descent parser for the copar language.
//
// Grammar (informal):
//
//   module   := (global | fundecl)*
//   global   := 'var' ID ('=' expr)? ';'
//   fundecl  := 'fun' ID '(' params? ')' block
//   block    := '{' stmt* '}'
//   stmt     := (ID ':')? unlabeled
//   unlabeled:= block
//             | 'var' ID ('=' rhs)? ';'
//             | 'if' '(' expr ')' stmt ('else' stmt)?
//             | 'while' '(' expr ')' stmt
//             | 'cobegin' branch ('||' branch)* 'coend' ';'?
//             | 'return' expr? ';'
//             | 'skip' ';' | 'lock' '(' expr ')' ';' | 'unlock' '(' expr ')' ';'
//             | 'assert' '(' expr ')' ';'
//             | expr '=' rhs ';'           (assignment / alloc / call)
//             | expr '(' args? ')' ';'     (bare call)
//   branch   := block | unlabeled
//   rhs      := 'alloc' '(' expr ')' | expr ('(' args? ')')?
//   expr     := or-expr  (with 'and'/'or', comparisons, +,-,*,/,%, unary
//               '-','not','*','&', indexing e[i], 'fun' literals)
//
// Restrictions enforced here (see ast.h): `alloc` only as a whole RHS, calls
// only at statement level with a syntactically primary callee.
//
// Nesting limit: no AST path may run deeper than kMaxNesting levels, counting
// statement nesting, parentheses, unary operators and every operator of a
// left-associative chain (`1 + 1 + ... + 1` nests as deep as it is long).
// Past it the parser reports `nesting-too-deep` and stops, so every
// recursive pass over the AST (resolver, lowerer, printer, concrete and
// abstract evaluators) recurses a bounded number of levels.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/token.h"
#include "src/support/diagnostics.h"

namespace copar::lang {

class Parser {
 public:
  /// Deepest AST nesting accepted. Each level costs the parser about ten
  /// stack frames, which the 8 MiB main-thread stack holds with room to
  /// spare even under AddressSanitizer.
  static constexpr std::size_t kMaxNesting = 256;

  Parser(std::vector<Token> tokens, Module& module, DiagnosticEngine& diags);

  /// Parses a whole module; on syntax errors, reports and recovers at ';'.
  /// Stops at the first nesting-too-deep error.
  void parse_module();

 private:
  /// Thrown once nesting-too-deep is reported; unwinds to parse_module.
  struct NestingTooDeep {};

  /// One level of recursive nesting (a statement, a parenthesized or
  /// argument expression, a unary operand) for as long as it is parsed.
  class Nest {
   public:
    Nest(Parser& p, SourceLoc loc);
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  [[noreturn]] void too_deep(SourceLoc loc);
  /// Checks a node of height `h` built at the current depth; returns `h`.
  std::size_t grow(std::size_t h, SourceLoc loc);
  /// Builds `lhs op rhs`; `lhs_height` is the height of `lhs` and becomes
  /// that of the result (height_ holds the height of `rhs`, then the result).
  ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc, std::size_t& lhs_height);

  const Token& peek(std::size_t ahead = 0) const;
  const Token& advance();
  bool match(Tok t);
  const Token& expect(Tok t, std::string_view context);
  void sync_to_semi();

  void parse_global();
  void parse_fundecl();
  std::unique_ptr<Block> parse_block();
  void parse_stmt(std::vector<StmtPtr>& out);
  void parse_unlabeled(std::vector<StmtPtr>& out, Symbol label);
  StmtPtr parse_branch();
  StmtPtr parse_stmt_single();
  void parse_assign_or_call(std::vector<StmtPtr>& out, Symbol label);
  void parse_rhs_into(ExprPtr lhs, SourceLoc loc, Symbol label, std::vector<StmtPtr>& out);

  ExprPtr parse_expr();
  ExprPtr parse_or();
  ExprPtr parse_and();
  ExprPtr parse_cmp();
  ExprPtr parse_add();
  ExprPtr parse_mul();
  ExprPtr parse_unary();
  ExprPtr parse_postfix();
  ExprPtr parse_primary();
  std::vector<ExprPtr> parse_args();

  /// True if `e` is a valid assignment target (VarRef/Deref/Index).
  static bool is_lvalue(const Expr& e);
  /// True if `e` may syntactically be a call target.
  static bool is_callable(const Expr& e);

  /// Stamps `node`'s extent as ending at the last consumed token. Called
  /// once a production has consumed everything belonging to the node.
  template <typename T>
  std::unique_ptr<T> finish(std::unique_ptr<T> node) {
    node->set_end(prev_end_);
    return node;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  Module& module_;
  DiagnosticEngine& diags_;
  int fun_depth_ = 0;
  /// Nesting levels in flight.
  std::size_t depth_ = 0;
  /// Height of the expression the last expression production returned.
  std::size_t height_ = 0;
  /// Deepest level (depth + height) reached so far: a function literal's
  /// height is how far its body reaches below it.
  std::size_t reach_ = 0;
  /// End position of the most recently consumed token.
  SourceLoc prev_end_;
};

/// Convenience: lex + parse + resolve `source` into a fresh Module.
/// Throws copar::Error with all diagnostics if anything fails.
std::unique_ptr<Module> parse_program(std::string_view source);

/// Non-throwing variant; diagnostics go to `diags`, returns the module
/// (possibly partial) regardless.
std::unique_ptr<Module> parse_program(std::string_view source, DiagnosticEngine& diags);

}  // namespace copar::lang
