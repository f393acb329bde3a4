// Seeded input programs for the benchmark, each with the answer it has by
// construction.
//
// Five families: dining philosophers (from copar's own workload generator),
// n-thread filter locks, doall histograms, counter programs and spin-loop
// programs. Every generator is a pure function of its size parameters and a
// seed, and records what any correct verdict must say about the program it
// built. The benchmark scores copar against these answers, never against
// copar's own output.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Two source lines, lo <= hi: the statements of a race pair.
using LinePair = std::pair<std::uint32_t, std::uint32_t>;

[[nodiscard]] inline LinePair line_pair(std::uint32_t a, std::uint32_t b) {
  return a <= b ? LinePair{a, b} : LinePair{b, a};
}

/// What a correct verdict says about a generated program.
struct Answer {
  /// Some interleaving blocks every live process.
  bool deadlock = false;

  /// Explore answers: the values global `watch` holds in terminal
  /// configurations. Their maximum is `watch_max` (the serial outcome);
  /// `watch_unique` says whether every terminal holds it.
  std::string watch;
  std::int64_t watch_max = 0;
  bool watch_unique = true;

  /// Check answers, as source-line pairs of race findings: every pair in
  /// `must_race` is reported; when `races_bounded`, nothing outside
  /// `must_race` ∪ `may_race` is; no reported pair touches a line of
  /// `race_free_lines`.
  std::set<LinePair> must_race;
  std::set<LinePair> may_race;
  bool races_bounded = false;
  std::set<std::uint32_t> race_free_lines;
};

struct Job {
  std::string name;
  std::string source;
  Answer answer;
};

// --- generators ------------------------------------------------------------

/// copar::workload::dining_philosophers(n, left_handed): right-handed
/// tables deadlock (circular wait), left-handed ones do not.
Job philosophers(std::size_t n, bool left_handed);

/// The n-thread filter lock (Peterson's generalisation to n levels): mutual
/// exclusion holds, so the critical-section assert never fails and the
/// `in_cs` statements never race. `seed` permutes the thread ids.
Job filter_lock(std::size_t n, std::uint64_t seed);

/// bins[i] = a*i by one doall, then a second doall sums the bins into
/// `total`, under a lock or as an unlocked read-modify-write. Locked: every
/// terminal holds the full sum. Unlocked (n >= 2): lost updates give
/// smaller totals too, and the read/write pair on `total` races. `seed`
/// picks a.
Job doall_histogram(std::size_t n, bool locked, std::uint64_t seed);

/// `threads` threads each increment `per_thread` distinct counters out of
/// `counters`; half of each thread's increments run under the counter's
/// own lock. Two increments of one counter in different threads race
/// exactly when at least one of them is unlocked.
Job counters(std::size_t threads, std::size_t counters, std::size_t per_thread,
             std::uint64_t seed);

/// `threads` threads spin in `while (stop == 0)` over `stmts` statements
/// each, half of them locked updates of guarded globals, half unlocked
/// assignments between racy globals (reading a guarded global now and
/// then); one more thread sets `stop`. The state space is infinite. Every
/// pair of statements in different threads that touch a common global, one
/// writing, without a common lock, races — including each loop test
/// against `stop = 1`.
Job spin_loops(std::size_t threads, std::size_t globals, std::size_t stmts, std::uint64_t seed);

// --- workloads -------------------------------------------------------------

/// The benchmark's workloads (see README.md for why each exists).
enum class Workload : std::uint8_t { ExploreSeq, ExplorePar, CheckAuto, CheckTmod };

inline constexpr Workload kWorkloads[] = {Workload::ExploreSeq, Workload::ExplorePar,
                                          Workload::CheckAuto, Workload::CheckTmod};

std::string_view workload_name(Workload w);

/// Parses a workload name; false if unknown.
bool parse_workload(std::string_view name, Workload& out);

/// The workload's jobs for `seed`: a fixed mix of families and sizes (so
/// every seed costs about the same), with each program's variant drawn from
/// the seed and the job order shuffled by it.
std::vector<Job> make_corpus(Workload w, std::uint64_t seed);

}  // namespace perfbench
