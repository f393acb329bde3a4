// Configuration fingerprints built from the digests cached on the COW
// handles (src/sem/config.h): the cached path must equal a recomputation
// from the fields on every state the engines produce (the staleness
// oracle), and key equality must coincide with fingerprint equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/explore/core.h"
#include "src/explore/staticinfo.h"
#include "src/sem/program.h"
#include "src/sem/step.h"
#include "src/workload/philosophers.h"
#include "src/workload/random_programs.h"

namespace copar::explore {
namespace {

using support::Fingerprint;
using support::FingerprintHash;

/// Failures of one walk, with the first of each kind for the message.
struct Walk {
  std::size_t states = 0;
  std::size_t successors = 0;
  std::size_t stale = 0;      // cached fingerprint != recomputed one
  std::size_t disagreed = 0;  // key equality and fingerprint equality differ
  std::string first;

  void fail(std::size_t& count, const std::string& what) {
    if (count++ == 0 && first.empty()) first = what;
  }
};

/// Breadth-first Full exploration of `source` (at most `cap` states),
/// firing every enabled process through core_step — so under `coarsen` a
/// successor is the end of a coarsened chain. Every successor's cached
/// fingerprint is compared with the recomputed one; with `check_keys`, the
/// canonical keys of the distinct states are kept too, and each key must
/// have one fingerprint and each fingerprint one key.
Walk walk(std::string_view source, std::size_t cap, bool coarsen, bool check_keys) {
  const auto prog = compile(source);
  const StaticInfo si(*prog->lowered);
  Recorder no_recording;
  ExploreCounters counters;
  Walk w;
  std::unordered_set<Fingerprint, FingerprintHash> seen;
  std::unordered_map<std::string, Fingerprint> fp_of_key;

  auto check = [&](const sem::Configuration& cfg, const std::string& where) {
    const Fingerprint fp = cfg.canonical_fingerprint();
    if (fp != cfg.recomputed_fingerprint()) w.fail(w.stale, "stale digest at " + where);
    if (!check_keys) return fp;
    const auto [it, fresh] = fp_of_key.emplace(cfg.canonical_key(), fp);
    if (it->second != fp) w.fail(w.disagreed, "one key, two fingerprints at " + where);
    if (fresh && seen.contains(fp)) w.fail(w.disagreed, "two keys, one fingerprint at " + where);
    return fp;
  };

  std::deque<sem::Configuration> queue;
  sem::Configuration init = sem::Configuration::initial(*prog->lowered);
  seen.insert(check(init, "the initial state"));
  queue.push_back(std::move(init));
  while (!queue.empty() && w.states < cap) {
    const sem::Configuration cfg = std::move(queue.front());
    queue.pop_front();
    w.states += 1;
    for (const sem::ActionInfo& info : sem::all_action_infos(cfg)) {
      if (!info.enabled) continue;
      sem::Configuration succ =
          core_step(cfg, info.pid, si, coarsen, no_recording, counters, &info);
      w.successors += 1;
      const Fingerprint fp = check(succ, "state #" + std::to_string(w.states) + ", pid " +
                                             std::to_string(info.pid));
      if (seen.insert(fp).second) queue.push_back(std::move(succ));
    }
  }
  return w;
}

void expect_clean(const Walk& w, const std::string& what) {
  EXPECT_GT(w.successors, 0u) << what;
  EXPECT_EQ(w.stale, 0u) << what << ": " << w.first;
  EXPECT_EQ(w.disagreed, 0u) << what << ": " << w.first;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::filesystem::path> sample_paths() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(COPAR_SAMPLES_DIR)) {
    if (entry.path().extension() == ".cop") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// The 300 random programs of the oracle tests: 200 default, 50 with three
/// branches, 50 with doall.
template <class F>
void for_each_random_program(F&& f) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    f(workload::random_program(seed), "seed " + std::to_string(seed));
  }
  workload::RandomOptions wide;
  wide.num_branches = 3;
  wide.max_branch_stmts = 3;
  for (std::uint64_t seed = 1000; seed < 1050; ++seed) {
    f(workload::random_program(seed, wide), "wide seed " + std::to_string(seed));
  }
  workload::RandomOptions doall;
  doall.use_doall = true;
  doall.max_branch_stmts = 3;
  for (std::uint64_t seed = 2000; seed < 2050; ++seed) {
    f(workload::random_program(seed, doall), "doall seed " + std::to_string(seed));
  }
}

// busy_wait and unbounded_counter have unbounded state spaces; the cap
// keeps their walk to a prefix.
constexpr std::size_t kSampleCap = 20000;

TEST(ConfigFingerprint, AgreesWithCanonicalKey) {
  const auto paths = sample_paths();
  EXPECT_EQ(paths.size(), 11u);
  for (const auto& path : paths) {
    expect_clean(walk(read_file(path), kSampleCap, false, true), path.filename().string());
  }
  for_each_random_program([](const std::string& source, const std::string& what) {
    expect_clean(walk(source, SIZE_MAX, false, true), what);
  });
}

TEST(ConfigFingerprint, CachedDigestsMatchRecomputedOnSamples) {
  for (const auto& path : sample_paths()) {
    for (const bool coarsen : {false, true}) {
      expect_clean(walk(read_file(path), kSampleCap, coarsen, false),
                   path.filename().string() + (coarsen ? " coarsened" : ""));
    }
  }
}

TEST(ConfigFingerprint, CachedDigestsMatchRecomputedOnRandomPrograms) {
  for_each_random_program([](const std::string& source, const std::string& what) {
    for (const bool coarsen : {false, true}) {
      expect_clean(walk(source, SIZE_MAX, coarsen, false), what + (coarsen ? " coarsened" : ""));
    }
  });
}

TEST(ConfigFingerprint, CachedDigestsMatchRecomputedOnPhilosophers) {
  for (std::size_t n = 3; n <= 6; ++n) {
    for (const bool coarsen : {false, true}) {
      expect_clean(walk(workload::dining_philosophers(n), SIZE_MAX, coarsen, false),
                   "philosophers " + std::to_string(n) + (coarsen ? " coarsened" : ""));
    }
  }
}

// Writes through the COW seams into a configuration that already carries
// sealed digests and owns the written handles alone (the in-place path of
// mutate(), which no engine takes on a sealed handle): each write must
// clear the digest it invalidates.
TEST(ConfigFingerprint, HandMutationClearsCachedDigests) {
  const auto prog = compile(R"(
    var a = 0;
    fun main() {
      a = 1;
      a = 2;
    }
  )");
  const sem::Configuration init = sem::Configuration::initial(*prog->lowered);
  sem::Configuration cfg = sem::apply_action(init, 0);  // a = 1: globals cloned and sealed
  ASSERT_EQ(cfg.canonical_fingerprint(), cfg.recomputed_fingerprint());
  const Fingerprint before = cfg.canonical_fingerprint();

  cfg.store.write(0, cfg.program().globals().front().slot, sem::Value::integer(7));
  EXPECT_EQ(cfg.canonical_fingerprint(), cfg.recomputed_fingerprint());
  EXPECT_NE(cfg.canonical_fingerprint(), before);

  cfg.seal();
  const Fingerprint sealed = cfg.canonical_fingerprint();
  EXPECT_EQ(sealed, cfg.recomputed_fingerprint());
  cfg.processes.mutate(0).pending_children += 1;
  EXPECT_EQ(cfg.canonical_fingerprint(), cfg.recomputed_fingerprint());
  EXPECT_NE(cfg.canonical_fingerprint(), sealed);
}

// Workers seal their successors concurrently; the fingerprints of the
// terminals reached at 4 threads must be exactly the sequential ones.
TEST(ConfigFingerprint, ParallelTerminalFingerprintsMatchSequential) {
  const auto prog = compile(workload::dining_philosophers(5));
  auto terminal_fps = [&](unsigned threads) {
    ExploreOptions opts;
    opts.threads = threads;
    const ExploreResult r = explore(*prog->lowered, opts);
    EXPECT_FALSE(r.truncated);
    std::set<Fingerprint> fps;
    for (const auto& [key, t] : r.terminals) {
      EXPECT_EQ(t.config.canonical_fingerprint(), t.config.recomputed_fingerprint());
      fps.insert(t.config.canonical_fingerprint());
    }
    return fps;
  };
  const std::set<Fingerprint> seq = terminal_fps(1);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(terminal_fps(4), seq);
}

}  // namespace
}  // namespace copar::explore
