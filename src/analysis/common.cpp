#include "src/analysis/common.h"

#include "src/lang/ast.h"

namespace copar::analysis {

std::optional<std::uint32_t> global_slot(const sem::LoweredProgram& prog,
                                         std::string_view name) {
  for (const sem::GlobalSlot& g : prog.globals()) {
    if (prog.module().interner().spelling(g.name) == name) return g.slot;
  }
  return std::nullopt;
}

std::optional<std::uint32_t> labeled_stmt(const sem::LoweredProgram& prog,
                                          std::string_view label) {
  const lang::Stmt* s = prog.module().find_labeled(label);
  if (s == nullptr) return std::nullopt;
  return s->id();
}

std::string describe_loc(const sem::LoweredProgram& prog, const absem::AbsLoc& loc) {
  switch (loc.kind) {
    case absem::AbsLoc::Kind::Global:
      for (const sem::GlobalSlot& g : prog.globals()) {
        if (g.slot == loc.a) {
          return "global " + std::string(prog.module().interner().spelling(g.name));
        }
      }
      return "global#" + std::to_string(loc.a);
    case absem::AbsLoc::Kind::Frame:
      return "local " + prog.proc(loc.a).name + "[" + std::to_string(loc.b) + "]";
    case absem::AbsLoc::Kind::Heap:
      return "heap@" + describe_stmt(prog, loc.a);
  }
  return "?";
}

std::string describe_stmt(const sem::LoweredProgram& prog, std::uint32_t stmt_id) {
  // Search the label table first.
  for (const auto& [sym, stmt] : prog.module().labels()) {
    if (stmt->id() == stmt_id) return std::string(prog.module().interner().spelling(sym));
  }
  return "stmt#" + std::to_string(stmt_id);
}

bool is_sync_stmt(const sem::LoweredProgram& prog, std::uint32_t stmt_id) {
  const lang::Stmt* s = prog.stmt(stmt_id);
  return s != nullptr &&
         (s->kind() == lang::StmtKind::Lock || s->kind() == lang::StmtKind::Unlock);
}

}  // namespace copar::analysis
