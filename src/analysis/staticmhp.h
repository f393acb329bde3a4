// Syntactic may-happen-in-parallel over the cobegin/doall structure.
//
// Exploration-derived MHP (mhp_from(ExploreResult)) is exact for the
// explored space but costs the whole space. This pass reads only the
// lowered fork structure: at every reachable Fork, any proc reachable
// (via calls and forks) from one child may run in parallel with any proc
// reachable from a *different* child; a ForkRange (doall) child may run in
// parallel with itself (multiple instances). Statement pairs lift from proc
// pairs: s || t when some proc holding s may run in parallel with some proc
// holding t. parallel_stmts answers that from the proc matrix and a
// statement -> procs index; stmt_mhp() materializes every such pair, which
// is quadratic in the statements of parallel procs. The result
// over-approximates every co-enabled pair the explorer can observe —
// cobegin children never outlive their Join, so fork-site products are the
// only source of concurrency.
#pragma once

#include <cstdint>
#include <vector>

#include "src/analysis/mhp.h"
#include "src/explore/staticinfo.h"
#include "src/sem/lower.h"

namespace copar::analysis {

class StaticParallelism {
 public:
  StaticParallelism(const sem::LoweredProgram& prog, const explore::StaticInfo& info);

  /// May instances of procs `p` and `q` run concurrently? `p == q` asks
  /// whether two instances of the same proc can coexist (doall bodies, or a
  /// proc reachable from two sibling cobegin branches).
  [[nodiscard]] bool parallel_procs(std::uint32_t p, std::uint32_t q) const {
    return par_[p * n_ + q] != 0;
  }

  /// May statements `s` and `t` run concurrently? Equal to
  /// stmt_mhp().parallel(s, t), without building the pair set.
  [[nodiscard]] bool parallel_stmts(std::uint32_t s, std::uint32_t t) const {
    if (s >= procs_of_.size() || t >= procs_of_.size()) return false;
    for (const std::uint32_t p : procs_of_[s]) {
      for (const std::uint32_t q : procs_of_[t]) {
        if (parallel_procs(p, q)) return true;
      }
    }
    return false;
  }

  /// Lift to statement pairs: the same `Mhp` interface the exploration- and
  /// abstraction-derived variants return.
  [[nodiscard]] Mhp stmt_mhp() const;

 private:
  std::size_t n_ = 0;
  std::vector<char> par_;  // n*n symmetric matrix
  /// Statement id -> the procs whose code holds it, ascending (synthesized
  /// instructions have no statement).
  std::vector<std::vector<std::uint32_t>> procs_of_;
};

/// Syntactic MHP with the same pair-set interface as the exploration- and
/// abstraction-derived overloads; sound (superset of co-enabled pairs).
Mhp mhp_from(const sem::LoweredProgram& prog, const explore::StaticInfo& info);

}  // namespace copar::analysis
