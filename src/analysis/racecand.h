// The static race tier: MHP ∩ conflicting-access ∩ disjoint-locksets.
//
// Enumerates every pair of statements whose lowered instructions conflict
// (one writes a location class the other touches — the same class sets the
// stubborn-set machinery uses), then prunes:
//
//   1. pairs no syntactic interleaving can co-schedule (StaticParallelism),
//   2. pairs protected by a common lock — some lock is in the must-held
//      lockset of *every* parallel occurrence of both sides, so the
//      accesses are mutually exclusive. These are proven race-free and
//      reported as suppressed, with the protecting lock named.
//
// What survives is the ranked candidate list the directed explorer
// confirms or refutes (check --tier=auto), or that --tier=static reports
// as-is. Soundness: location classes over-approximate concrete overlap,
// StaticParallelism over-approximates co-enabledness, and must-locksets
// under-approximate held locks — so candidates ⊇ the explorer's races.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/absem/tmod.h"
#include "src/analysis/lockset.h"
#include "src/analysis/staticmhp.h"
#include "src/explore/staticinfo.h"
#include "src/sem/lower.h"

namespace copar::analysis {

struct RaceCandidate {
  std::uint32_t stmt1 = 0, stmt2 = 0;  // stmt1 <= stmt2
  bool write_write = false;            // some occurrence conflicts write/write
  bool write_read = false;             // some occurrence conflicts write/read
  int score = 0;                       // rank: 2*ww + wr
};

/// A conflicting parallel pair proven race-free by a common lock.
struct SuppressedPair {
  std::uint32_t stmt1 = 0, stmt2 = 0;  // stmt1 <= stmt2
  std::string lock;                    // the protecting lock cell
};

struct CandidateReport {
  /// Ranked: score descending, then source order.
  std::vector<RaceCandidate> candidates;
  /// Source order.
  std::vector<SuppressedPair> suppressed;
  /// Universe: conflicting statement pairs (sync/sync contention excluded).
  /// pairs_total == pruned_mhp + pruned_lockset + candidates.size().
  std::uint64_t pairs_total = 0;
  std::uint64_t pruned_mhp = 0;
  std::uint64_t pruned_lockset = 0;

  /// Stable text dump for golden tests.
  [[nodiscard]] std::string report(const sem::LoweredProgram& prog) const;
};

CandidateReport race_candidates(const sem::LoweredProgram& prog,
                                const explore::StaticInfo& info,
                                const StaticParallelism& par, const LockSets& locks);

/// The static facts that prune the thread-modular engine
/// (absem::tmod_analyze): must-locksets prune interference and race pairs
/// on mutual exclusion, and `par` prunes pairs no syntactic interleaving
/// can co-schedule (StaticParallelism::parallel_stmts). The hooks refer to
/// both arguments, which must outlive the returned options.
absem::TmodOptions tmod_options(const StaticParallelism& par, const LockSets& locks);

}  // namespace copar::analysis
