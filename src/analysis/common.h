// Shared helpers for the client analyses: name lookups and pretty-printing
// of abstract locations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/absem/absloc.h"
#include "src/sem/lower.h"

namespace copar::analysis {

/// Global slot of `name` (declared global or named function); nullopt if
/// absent.
std::optional<std::uint32_t> global_slot(const sem::LoweredProgram& prog, std::string_view name);

/// Statement id of the statement labeled `label`; nullopt if absent.
std::optional<std::uint32_t> labeled_stmt(const sem::LoweredProgram& prog,
                                          std::string_view label);

/// Human-readable rendering of an abstract location ("global x",
/// "local f.t", "heap@s1").
std::string describe_loc(const sem::LoweredProgram& prog, const absem::AbsLoc& loc);

/// Human-readable name of a statement: its label if any, else "stmt#<id>"
/// with the source line.
std::string describe_stmt(const sem::LoweredProgram& prog, std::uint32_t stmt_id);

/// True when the statement is pure synchronization (lock/unlock): a
/// conflict between two such statements is contention on the lock cell,
/// not a data race.
bool is_sync_stmt(const sem::LoweredProgram& prog, std::uint32_t stmt_id);

}  // namespace copar::analysis
