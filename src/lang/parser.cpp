#include "src/lang/parser.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/lang/lexer.h"
#include "src/lang/resolver.h"

namespace copar::lang {

Parser::Parser(std::vector<Token> tokens, Module& module, DiagnosticEngine& diags)
    : tokens_(std::move(tokens)), module_(module), diags_(diags) {
  require(!tokens_.empty() && tokens_.back().is(Tok::Eof), "token stream must end with Eof");
}

const Token& Parser::peek(std::size_t ahead) const {
  const std::size_t i = pos_ + ahead;
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& Parser::advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  prev_end_ = t.end;
  return t;
}

bool Parser::match(Tok t) {
  if (peek().is(t)) {
    advance();
    return true;
  }
  return false;
}

const Token& Parser::expect(Tok t, std::string_view context) {
  if (peek().is(t)) return advance();
  std::ostringstream os;
  os << "expected " << tok_name(t) << " " << context << ", found " << tok_name(peek().kind);
  diags_.error(peek().loc, os.str());
  return peek();  // do not consume; caller recovers
}

void Parser::sync_to_semi() {
  while (!peek().is(Tok::Eof) && !peek().is(Tok::Semi) && !peek().is(Tok::RBrace)) advance();
  match(Tok::Semi);
}

Parser::Nest::Nest(Parser& p, SourceLoc loc) : p_(p) {
  if (p.depth_ >= kMaxNesting) p.too_deep(loc);
  ++p.depth_;
  p.reach_ = std::max(p.reach_, p.depth_);
}

void Parser::too_deep(SourceLoc loc) {
  diags_.report(Severity::Error, loc,
                "nesting deeper than " + std::to_string(kMaxNesting) + " levels; parsing stopped",
                "nesting-too-deep");
  throw NestingTooDeep{};
}

std::size_t Parser::grow(std::size_t h, SourceLoc loc) {
  if (depth_ + h > kMaxNesting) too_deep(loc);
  reach_ = std::max(reach_, depth_ + h);
  return h;
}

ExprPtr Parser::binary(BinOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc,
                       std::size_t& lhs_height) {
  lhs_height = height_ = grow(std::max(lhs_height, height_) + 1, loc);
  return finish(std::make_unique<Binary>(op, std::move(lhs), std::move(rhs), loc,
                                         module_.next_id()));
}

void Parser::parse_module() {
  try {
    while (!peek().is(Tok::Eof)) {
      if (peek().is(Tok::KwVar)) {
        parse_global();
      } else if (peek().is(Tok::KwFun)) {
        parse_fundecl();
      } else {
        diags_.error(peek().loc, "expected 'var' or 'fun' at top level");
        sync_to_semi();
      }
    }
  } catch (const NestingTooDeep&) {
    // Reported; the partial tree is never resolved (there is an error).
  }
}

void Parser::parse_global() {
  const SourceLoc loc = peek().loc;
  expect(Tok::KwVar, "in global declaration");
  const Token& name = expect(Tok::Ident, "after 'var'");
  ExprPtr init;
  if (match(Tok::Assign)) init = parse_expr();
  expect(Tok::Semi, "after global declaration");
  module_.add_global(GlobalDecl{name.ident, std::move(init), loc});
}

void Parser::parse_fundecl() {
  const SourceLoc loc = peek().loc;
  expect(Tok::KwFun, "in function declaration");
  const Token& name = expect(Tok::Ident, "after 'fun'");
  expect(Tok::LParen, "after function name");
  std::vector<Symbol> params;
  if (!peek().is(Tok::RParen)) {
    do {
      params.push_back(expect(Tok::Ident, "in parameter list").ident);
    } while (match(Tok::Comma));
  }
  expect(Tok::RParen, "after parameters");
  ++fun_depth_;
  auto body = parse_block();
  --fun_depth_;
  module_.add_function(std::make_unique<FunDecl>(
      name.ident, std::move(params), std::move(body), loc,
      static_cast<std::uint32_t>(module_.functions().size())));
}

std::unique_ptr<Block> Parser::parse_block() {
  const SourceLoc loc = peek().loc;
  const std::uint32_t id = module_.next_id();
  expect(Tok::LBrace, "to open block");
  std::vector<StmtPtr> stmts;
  while (!peek().is(Tok::RBrace) && !peek().is(Tok::Eof)) parse_stmt(stmts);
  expect(Tok::RBrace, "to close block");
  return finish(std::make_unique<Block>(std::move(stmts), loc, id));
}

void Parser::parse_stmt(std::vector<StmtPtr>& out) {
  const Nest nest(*this, peek().loc);
  Symbol label;
  if (peek().is(Tok::Ident) && peek(1).is(Tok::Colon)) {
    label = advance().ident;
    advance();  // ':'
  }
  parse_unlabeled(out, label);
}

void Parser::parse_unlabeled(std::vector<StmtPtr>& out, Symbol label) {
  const SourceLoc loc = peek().loc;
  const std::size_t before = out.size();
  switch (peek().kind) {
    case Tok::LBrace:
      out.push_back(parse_block());
      break;
    case Tok::KwVar: {
      advance();
      const Token& name = expect(Tok::Ident, "after 'var'");
      const std::uint32_t id = module_.next_id();
      if (match(Tok::Assign)) {
        // `var x = rhs;` desugars to `var x; x = rhs;` so that alloc/call
        // initializers reuse the statement-level forms.
        auto decl = std::make_unique<VarDeclStmt>(name.ident, nullptr, loc, id);
        decl->set_end(name.end);
        out.push_back(std::move(decl));
        auto ref = std::make_unique<VarRef>(name.ident, loc, module_.next_id());
        ref->set_end(name.end);
        parse_rhs_into(std::move(ref), loc, Symbol(), out);
      } else {
        expect(Tok::Semi, "after variable declaration");
        out.push_back(finish(std::make_unique<VarDeclStmt>(name.ident, nullptr, loc, id)));
      }
      break;
    }
    case Tok::KwIf: {
      advance();
      expect(Tok::LParen, "after 'if'");
      auto cond = parse_expr();
      expect(Tok::RParen, "after condition");
      StmtPtr then_stmt = parse_stmt_single();
      StmtPtr else_stmt;
      if (match(Tok::KwElse)) else_stmt = parse_stmt_single();
      out.push_back(finish(std::make_unique<IfStmt>(std::move(cond), std::move(then_stmt),
                                                    std::move(else_stmt), loc,
                                                    module_.next_id())));
      break;
    }
    case Tok::KwWhile: {
      advance();
      expect(Tok::LParen, "after 'while'");
      auto cond = parse_expr();
      expect(Tok::RParen, "after condition");
      StmtPtr body = parse_stmt_single();
      out.push_back(finish(std::make_unique<WhileStmt>(std::move(cond), std::move(body), loc,
                                                       module_.next_id())));
      break;
    }
    case Tok::KwCobegin: {
      advance();
      std::vector<StmtPtr> branches;
      branches.push_back(parse_branch());
      while (match(Tok::BarBar)) branches.push_back(parse_branch());
      expect(Tok::KwCoend, "to close cobegin");
      match(Tok::Semi);  // optional, paper figures omit it
      out.push_back(finish(std::make_unique<CobeginStmt>(std::move(branches), loc,
                                                         module_.next_id())));
      break;
    }
    case Tok::KwDoall: {
      // doall (i = lo .. hi) body
      advance();
      expect(Tok::LParen, "after 'doall'");
      const Token& var = expect(Tok::Ident, "as doall index");
      expect(Tok::Assign, "after doall index");
      auto lo = parse_expr();
      expect(Tok::DotDot, "in doall range");
      auto hi = parse_expr();
      expect(Tok::RParen, "after doall range");
      StmtPtr body = parse_stmt_single();
      out.push_back(finish(std::make_unique<DoAllStmt>(var.ident, std::move(lo), std::move(hi),
                                                       std::move(body), loc, module_.next_id())));
      break;
    }
    case Tok::KwReturn: {
      advance();
      ExprPtr value;
      if (!peek().is(Tok::Semi)) value = parse_expr();
      expect(Tok::Semi, "after return");
      out.push_back(finish(std::make_unique<ReturnStmt>(std::move(value), loc, module_.next_id())));
      break;
    }
    case Tok::KwSkip: {
      advance();
      expect(Tok::Semi, "after 'skip'");
      out.push_back(finish(std::make_unique<SkipStmt>(loc, module_.next_id())));
      break;
    }
    case Tok::KwLock: {
      advance();
      expect(Tok::LParen, "after 'lock'");
      auto lv = parse_expr();
      expect(Tok::RParen, "after lock target");
      expect(Tok::Semi, "after 'lock(...)'");
      if (!is_lvalue(*lv)) diags_.error(loc, "lock target must be an lvalue");
      out.push_back(finish(std::make_unique<LockStmt>(std::move(lv), loc, module_.next_id())));
      break;
    }
    case Tok::KwUnlock: {
      advance();
      expect(Tok::LParen, "after 'unlock'");
      auto lv = parse_expr();
      expect(Tok::RParen, "after unlock target");
      expect(Tok::Semi, "after 'unlock(...)'");
      if (!is_lvalue(*lv)) diags_.error(loc, "unlock target must be an lvalue");
      out.push_back(finish(std::make_unique<UnlockStmt>(std::move(lv), loc, module_.next_id())));
      break;
    }
    case Tok::KwAssert: {
      advance();
      expect(Tok::LParen, "after 'assert'");
      auto cond = parse_expr();
      expect(Tok::RParen, "after assertion");
      expect(Tok::Semi, "after 'assert(...)'");
      out.push_back(finish(std::make_unique<AssertStmt>(std::move(cond), loc, module_.next_id())));
      break;
    }
    default:
      parse_assign_or_call(out, label);
      if (out.size() > before && label.valid()) out[before]->set_label(label);
      return;
  }
  if (out.size() > before && label.valid()) out[before]->set_label(label);
}

StmtPtr Parser::parse_branch() {
  if (peek().is(Tok::LBrace)) return parse_block();
  return parse_stmt_single();
}

StmtPtr Parser::parse_stmt_single() {
  // parse_stmt may emit 0 (error recovery), 1, or 2 statements (desugared
  // `var x = rhs;`); normalize to exactly one, wrapping in a block if needed.
  const SourceLoc loc = peek().loc;
  std::vector<StmtPtr> stmts;
  parse_stmt(stmts);
  if (stmts.size() == 1) return std::move(stmts.front());
  if (stmts.empty()) return finish(std::make_unique<SkipStmt>(loc, module_.next_id()));
  return finish(std::make_unique<Block>(std::move(stmts), loc, module_.next_id()));
}

void Parser::parse_assign_or_call(std::vector<StmtPtr>& out, Symbol label) {
  const SourceLoc loc = peek().loc;
  auto lhs = parse_expr();
  if (peek().is(Tok::Assign)) {
    advance();
    if (!is_lvalue(*lhs)) diags_.error(loc, "assignment target must be an lvalue");
    parse_rhs_into(std::move(lhs), loc, label, out);
    return;
  }
  if (peek().is(Tok::LParen)) {
    if (!is_callable(*lhs)) {
      diags_.error(loc, "call target must be a simple expression (wrap it in parentheses)");
    }
    advance();
    auto args = parse_args();
    expect(Tok::RParen, "after call arguments");
    expect(Tok::Semi, "after call statement");
    auto stmt = finish(std::make_unique<CallStmt>(nullptr, std::move(lhs), std::move(args), loc,
                                                  module_.next_id()));
    if (label.valid()) stmt->set_label(label);
    out.push_back(std::move(stmt));
    return;
  }
  diags_.error(peek().loc, "expected '=' or '(' after expression statement");
  sync_to_semi();
}

void Parser::parse_rhs_into(ExprPtr lhs, SourceLoc loc, Symbol label, std::vector<StmtPtr>& out) {
  StmtPtr stmt;
  if (peek().is(Tok::KwAlloc)) {
    advance();
    expect(Tok::LParen, "after 'alloc'");
    auto size = parse_expr();
    expect(Tok::RParen, "after alloc size");
    expect(Tok::Semi, "after allocation");
    stmt = finish(std::make_unique<AllocStmt>(std::move(lhs), std::move(size), loc,
                                              module_.next_id()));
  } else {
    auto rhs = parse_expr();
    if (peek().is(Tok::LParen)) {
      if (!is_callable(*rhs)) {
        diags_.error(loc, "call target must be a simple expression (calls cannot be nested in "
                          "expressions)");
      }
      advance();
      auto args = parse_args();
      expect(Tok::RParen, "after call arguments");
      expect(Tok::Semi, "after call statement");
      stmt = finish(std::make_unique<CallStmt>(std::move(lhs), std::move(rhs), std::move(args),
                                               loc, module_.next_id()));
    } else {
      expect(Tok::Semi, "after assignment");
      stmt = finish(std::make_unique<AssignStmt>(std::move(lhs), std::move(rhs), loc,
                                                 module_.next_id()));
    }
  }
  if (label.valid()) stmt->set_label(label);
  out.push_back(std::move(stmt));
}

std::vector<ExprPtr> Parser::parse_args() {
  std::vector<ExprPtr> args;
  if (peek().is(Tok::RParen)) return args;
  do {
    args.push_back(parse_expr());
  } while (match(Tok::Comma));
  return args;
}

ExprPtr Parser::parse_expr() {
  const Nest nest(*this, peek().loc);
  return parse_or();
}

ExprPtr Parser::parse_or() {
  auto lhs = parse_and();
  std::size_t h = height_;
  while (peek().is(Tok::KwOr)) {
    const SourceLoc loc = advance().loc;
    auto rhs = parse_and();
    lhs = binary(BinOp::Or, std::move(lhs), std::move(rhs), loc, h);
  }
  return lhs;
}

ExprPtr Parser::parse_and() {
  auto lhs = parse_cmp();
  std::size_t h = height_;
  while (peek().is(Tok::KwAnd)) {
    const SourceLoc loc = advance().loc;
    auto rhs = parse_cmp();
    lhs = binary(BinOp::And, std::move(lhs), std::move(rhs), loc, h);
  }
  return lhs;
}

ExprPtr Parser::parse_cmp() {
  auto lhs = parse_add();
  std::size_t h = height_;
  for (;;) {
    BinOp op;
    switch (peek().kind) {
      case Tok::EqEq: op = BinOp::Eq; break;
      case Tok::NotEq: op = BinOp::Ne; break;
      case Tok::Lt: op = BinOp::Lt; break;
      case Tok::Le: op = BinOp::Le; break;
      case Tok::Gt: op = BinOp::Gt; break;
      case Tok::Ge: op = BinOp::Ge; break;
      default: return lhs;
    }
    const SourceLoc loc = advance().loc;
    auto rhs = parse_add();
    lhs = binary(op, std::move(lhs), std::move(rhs), loc, h);
  }
}

ExprPtr Parser::parse_add() {
  auto lhs = parse_mul();
  std::size_t h = height_;
  for (;;) {
    BinOp op;
    if (peek().is(Tok::Plus)) {
      op = BinOp::Add;
    } else if (peek().is(Tok::Minus)) {
      op = BinOp::Sub;
    } else {
      return lhs;
    }
    const SourceLoc loc = advance().loc;
    auto rhs = parse_mul();
    lhs = binary(op, std::move(lhs), std::move(rhs), loc, h);
  }
}

ExprPtr Parser::parse_mul() {
  auto lhs = parse_unary();
  std::size_t h = height_;
  for (;;) {
    BinOp op;
    if (peek().is(Tok::Star)) {
      op = BinOp::Mul;
    } else if (peek().is(Tok::Slash)) {
      op = BinOp::Div;
    } else if (peek().is(Tok::Percent)) {
      op = BinOp::Mod;
    } else {
      return lhs;
    }
    const SourceLoc loc = advance().loc;
    auto rhs = parse_unary();
    lhs = binary(op, std::move(lhs), std::move(rhs), loc, h);
  }
}

ExprPtr Parser::parse_unary() {
  const SourceLoc loc = peek().loc;
  const Tok t = peek().kind;
  if (t != Tok::Minus && t != Tok::KwNot && t != Tok::Star && t != Tok::Amp) {
    return parse_postfix();
  }
  const Nest nest(*this, loc);
  ExprPtr e;
  if (match(Tok::Minus)) {
    e = finish(std::make_unique<Unary>(UnOp::Neg, parse_unary(), loc, module_.next_id()));
  } else if (match(Tok::KwNot)) {
    e = finish(std::make_unique<Unary>(UnOp::Not, parse_unary(), loc, module_.next_id()));
  } else if (match(Tok::Star)) {
    e = finish(std::make_unique<Deref>(parse_unary(), loc, module_.next_id()));
  } else {
    advance();  // '&'
    auto lv = parse_unary();
    if (!is_lvalue(*lv)) diags_.error(loc, "'&' requires an lvalue operand");
    e = finish(std::make_unique<AddrOf>(std::move(lv), loc, module_.next_id()));
  }
  height_ = grow(height_ + 1, loc);
  return e;
}

ExprPtr Parser::parse_postfix() {
  auto e = parse_primary();
  std::size_t h = height_;
  while (peek().is(Tok::LBracket)) {
    const SourceLoc loc = advance().loc;
    auto idx = parse_expr();
    expect(Tok::RBracket, "after index");
    e = finish(std::make_unique<Index>(std::move(e), std::move(idx), loc, module_.next_id()));
    h = height_ = grow(std::max(h, height_) + 1, loc);
  }
  return e;
}

ExprPtr Parser::parse_primary() {
  const Token& t = peek();
  height_ = 1;
  switch (t.kind) {
    case Tok::Int:
      advance();
      return finish(std::make_unique<IntLit>(t.int_value, t.loc, module_.next_id()));
    case Tok::KwTrue:
      advance();
      return finish(std::make_unique<BoolLit>(true, t.loc, module_.next_id()));
    case Tok::KwFalse:
      advance();
      return finish(std::make_unique<BoolLit>(false, t.loc, module_.next_id()));
    case Tok::KwNull:
      advance();
      return finish(std::make_unique<NullLit>(t.loc, module_.next_id()));
    case Tok::Ident:
      advance();
      return finish(std::make_unique<VarRef>(t.ident, t.loc, module_.next_id()));
    case Tok::LParen: {
      advance();
      auto e = parse_expr();
      expect(Tok::RParen, "to close parenthesized expression");
      return e;
    }
    case Tok::KwFun: {
      // Anonymous function literal: fun (params) { ... }
      advance();
      expect(Tok::LParen, "after 'fun' in function literal");
      std::vector<Symbol> params;
      if (!peek().is(Tok::RParen)) {
        do {
          params.push_back(expect(Tok::Ident, "in parameter list").ident);
        } while (match(Tok::Comma));
      }
      expect(Tok::RParen, "after parameters");
      ++fun_depth_;
      const std::size_t outer_reach = std::exchange(reach_, depth_);
      auto body = parse_block();
      const std::size_t body_height = reach_ - depth_;
      reach_ = std::max(outer_reach, reach_);
      --fun_depth_;
      FunDecl* decl = module_.add_function(std::make_unique<FunDecl>(
          Symbol(), std::move(params), std::move(body), t.loc,
          static_cast<std::uint32_t>(module_.functions().size())));
      height_ = grow(body_height + 1, t.loc);
      return finish(std::make_unique<FunLit>(decl, t.loc, module_.next_id()));
    }
    case Tok::KwAlloc:
      diags_.error(t.loc, "'alloc' may only appear as the whole right-hand side of an assignment");
      advance();
      return finish(std::make_unique<IntLit>(0, t.loc, module_.next_id()));
    default:
      diags_.error(t.loc, std::string("expected expression, found ") + std::string(tok_name(t.kind)));
      advance();
      return finish(std::make_unique<IntLit>(0, t.loc, module_.next_id()));
  }
}

bool Parser::is_lvalue(const Expr& e) {
  return e.kind() == ExprKind::VarRef || e.kind() == ExprKind::Deref ||
         e.kind() == ExprKind::Index;
}

bool Parser::is_callable(const Expr& e) {
  // Primary-shaped targets only; the paper's examples call named functions
  // or function-valued variables.
  return e.kind() == ExprKind::VarRef || e.kind() == ExprKind::Deref ||
         e.kind() == ExprKind::Index || e.kind() == ExprKind::FunLit;
}

std::unique_ptr<Module> parse_program(std::string_view source, DiagnosticEngine& diags) {
  auto module = std::make_unique<Module>();
  Lexer lexer(source, module->interner(), diags);
  Parser parser(lexer.lex_all(), *module, diags);
  parser.parse_module();
  if (!diags.has_errors()) resolve(*module, diags);
  return module;
}

std::unique_ptr<Module> parse_program(std::string_view source) {
  DiagnosticEngine diags;
  auto module = parse_program(source, diags);
  if (diags.has_errors()) throw Error("parse failed:\n" + diags.to_string());
  return module;
}

}  // namespace copar::lang
