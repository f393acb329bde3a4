// Differential pin of observable engine behavior across the COW state
// representation (ISSUE 9).
//
// The copy-on-write Configuration must be a pure representation change:
// every engine's terminal-key set, violations, faults, deadlock verdict,
// and the rendered `check` diagnostics must stay byte-identical. These
// goldens were recorded against the pre-COW deep-copy engine (commit
// 8a8590c) and the matrix re-runs on every build:
//
//     samples × {Full, Stubborn} × {coarsen off/on} × {threads 1, 4}
//
// plus one `check` battery digest per sample, and one per sample for every
// check tier × witness setting:
//
//     {auto, static, explore, tmod} × {witnesses on, off}
//
// each a digest of the text, JSON and SARIF renderings plus every
// CheckSummary / TierStats / TmodStats field, so a refactor of the check
// pipeline must keep every tier byte-identical (auto and tmod also run once
// with a pair budget of 2, so some race searches run out). The abstract
// engines are pinned directly too, one digest of every result field and
// counter per cell:
//
//     AbsExplorer × {FlatInt, Interval, Parity, Sign} × {Tree, Clan} × k ∈ {0, 2}
//     tmod_analyze × {Interval, FlatInt}
//
// The evaluation counters pin the iteration order, not only the fixpoint.
// The concrete engines' counters are pinned as text, one row per cell of
//
//     samples × {Full, Stubborn} × {coarsen off/on} × {sleep off/on}, threads 1
//
// holding the configuration and transition counts and the exact
// stats.to_string() text, and the witness search gets one row per sample
// for a deadlock query and an any-terminal query under Full and Stubborn:
// its WitnessStats and a digest of the returned Witness::to_string().
// Regenerate (only when an *intentional* semantic change lands) with:
//
//     COPAR_UPDATE_GOLDENS=1 ./build/tests/test_cow_diff
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/absdom/flat.h"
#include "src/absdom/interval.h"
#include "src/absdom/parity.h"
#include "src/absdom/sign.h"
#include "src/absem/absexplore.h"
#include "src/absem/tmod.h"
#include "src/check/check.h"
#include "src/explore/explorer.h"
#include "src/explore/witness.h"
#include "src/sem/program.h"
#include "src/sem/step.h"
#include "src/support/fingerprint.h"

namespace copar {
namespace {

namespace fs = std::filesystem;

std::string fp_hex(const support::Fingerprint& fp) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buf;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Digest of everything the exploration observably computes: the sorted
/// terminal canonical keys (length-prefixed — byte-identity, not just
/// set-cardinality), violations, faults, and the deadlock verdict.
std::string explore_digest(const explore::ExploreResult& r) {
  support::Fp128Hasher h;
  const auto keys = r.terminal_keys();
  h.u32(static_cast<std::uint32_t>(keys.size()));
  for (const std::string& k : keys) {
    h.u32(static_cast<std::uint32_t>(k.size()));
    for (const char c : k) h.u8(static_cast<std::uint8_t>(c));
  }
  h.u32(static_cast<std::uint32_t>(r.violations.size()));
  for (const std::uint32_t v : r.violations) h.u32(v);
  h.u32(static_cast<std::uint32_t>(r.faults.size()));
  for (const auto& [stmt, kind] : r.faults) {
    h.u32(stmt);
    h.u8(kind);
  }
  h.u8(r.deadlock_found ? 1 : 0);
  return fp_hex(h.finalize());
}

/// Digest of the full rendered `check` text output (diagnostics including
/// witness schedules), byte for byte.
std::string check_digest(const CompiledProgram& prog, const std::string& source,
                         const std::string& name) {
  DiagnosticEngine engine;
  (void)check::run_checks(prog, engine, {});
  std::ostringstream os;
  engine.render_text(os, source, name);
  const std::string text = os.str();
  support::Fp128Hasher h;
  h.u32(static_cast<std::uint32_t>(text.size()));
  for (const char c : text) h.u8(static_cast<std::uint8_t>(c));
  return fp_hex(h.finalize());
}

/// Digest of one `check` run under `opts`: the text, JSON and SARIF
/// renderings byte for byte, then every CheckSummary field.
std::string check_tier_digest(const CompiledProgram& prog, const std::string& source,
                              const std::string& name, const check::CheckOptions& opts) {
  DiagnosticEngine engine;
  const check::CheckSummary sum = check::run_checks(prog, engine, opts);
  std::ostringstream os;
  engine.render_text(os, source, name);
  os << '\n';
  engine.render_json(os, name);
  os << '\n';
  engine.render_sarif(os, name, check::catalog());
  const std::string text = os.str();
  support::Fp128Hasher h;
  h.u32(static_cast<std::uint32_t>(text.size()));
  for (const char c : text) h.u8(static_cast<std::uint8_t>(c));
  h.u8(sum.concrete_exhaustive ? 1 : 0);
  h.u8(sum.explored ? 1 : 0);
  h.u8(static_cast<std::uint8_t>(sum.tier));
  for (const std::uint64_t v :
       {sum.concrete_configs, sum.abstract_states, sum.stats.pairs_total,
        sum.stats.pruned_mhp, sum.stats.pruned_lockset, sum.stats.candidates,
        sum.stats.confirmed, sum.stats.refuted, sum.stats.budget_exhausted,
        sum.stats.configs_explored, sum.tmod.interference_facts, sum.tmod.alarms}) {
    h.u64(v);
  }
  h.u8(sum.tmod.ran ? 1 : 0);
  h.u32(sum.tmod.threads);
  h.u32(sum.tmod.rounds);
  h.u8(sum.tmod.truncated ? 1 : 0);
  return fp_hex(h.finalize());
}

struct Matrix {
  /// "<sample> <cell>" -> digest ("truncated" for over-budget cells, which
  /// stay pinned as truncated so a budget change is visible too).
  std::map<std::string, std::string> rows;
};

/// Abstract-state budget of the absem rows: every sample converges far
/// below it, so a truncated cell would show a changed fixpoint.
constexpr std::uint64_t kAbsBudget = 200000;

void hash_str(support::Fp128Hasher& h, const std::string& s) {
  h.u32(static_cast<std::uint32_t>(s.size()));
  for (const char c : s) h.u8(static_cast<std::uint8_t>(c));
}

void hash_loc(support::Fp128Hasher& h, const absem::AbsLoc& loc) {
  h.u8(static_cast<std::uint8_t>(loc.kind));
  h.u32(loc.a);
  h.u32(loc.b);
  h.u32(loc.c);
}

void hash_ids(support::Fp128Hasher& h, const std::set<std::uint32_t>& ids) {
  h.u32(static_cast<std::uint32_t>(ids.size()));
  for (const std::uint32_t id : ids) h.u32(id);
}

void hash_locs(support::Fp128Hasher& h, const std::set<absem::AbsLoc>& locs) {
  h.u32(static_cast<std::uint32_t>(locs.size()));
  for (const absem::AbsLoc& loc : locs) hash_loc(h, loc);
}

template <typename V, typename F>
void hash_map(support::Fp128Hasher& h, const std::map<std::uint32_t, V>& m, F&& each) {
  h.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [k, v] : m) {
    h.u32(k);
    each(v);
  }
}

template <absem::NumDomain N>
void hash_value(support::Fp128Hasher& h, const absem::AbsValue<N>& v) {
  hash_str(h, v.num.to_string());
  h.u8(v.may_null ? 1 : 0);
  hash_locs(h, v.ptrs.elems());
  hash_ids(h, v.fns.elems());
}

template <absem::NumDomain N>
void hash_store(support::Fp128Hasher& h, const absem::AbsStore<N>& s) {
  h.u32(static_cast<std::uint32_t>(s.entries().size()));
  for (const auto& [loc, v] : s.entries()) {
    hash_loc(h, loc);
    hash_value(h, v);
  }
}

template <typename Faults, typename Uninit>
void hash_alarms(support::Fp128Hasher& h, const std::set<std::uint32_t>& asserts,
                 const Faults& faults, const Uninit& uninit) {
  hash_ids(h, asserts);
  h.u32(static_cast<std::uint32_t>(faults.size()));
  for (const auto& [stmt, expr, kind] : faults) {
    h.u32(stmt);
    h.u32(expr);
    h.u8(kind);
  }
  h.u32(static_cast<std::uint32_t>(uninit.size()));
  for (const auto& [stmt, expr, loc] : uninit) {
    h.u32(stmt);
    h.u32(expr);
    hash_loc(h, loc);
  }
}

template <absem::NumDomain N>
void hash_sizes(support::Fp128Hasher& h, const std::map<std::uint32_t, N>& sizes) {
  hash_map(h, sizes, [&](const N& n) { hash_str(h, n.to_string()); });
}

void hash_counters(support::Fp128Hasher& h, const StatRegistry& stats) {
  h.u32(static_cast<std::uint32_t>(stats.all().size()));
  for (const auto& [name, v] : stats.all()) {
    hash_str(h, name);
    h.u64(v);
  }
}

/// Digest of every AbsResult field, the evaluation counters included.
template <absem::NumDomain N>
std::string abs_digest(const absem::AbsResult<N>& r) {
  support::Fp128Hasher h;
  h.u64(r.num_states);
  h.u8(r.truncated ? 1 : 0);
  h.u32(static_cast<std::uint32_t>(r.mhp.size()));
  for (const auto& [a, b] : r.mhp) {
    h.u32(a);
    h.u32(b);
  }
  hash_alarms(h, r.may_fail_asserts, r.may_faults, r.uninit_reads);
  hash_sizes(h, r.site_sizes);
  hash_ids(h, r.reached_stmts);
  for (const auto* m : {&r.reads_direct, &r.writes_direct, &r.stmt_reads, &r.stmt_writes}) {
    hash_map(h, *m, [&](const std::set<absem::AbsLoc>& locs) { hash_locs(h, locs); });
  }
  for (const auto* m : {&r.call_edges, &r.fork_edges, &r.stmt_callees}) {
    hash_map(h, *m, [&](const std::set<std::uint32_t>& ids) { hash_ids(h, ids); });
  }
  h.u32(static_cast<std::uint32_t>(r.point_stores.size()));
  for (const auto& [pt, store] : r.point_stores) {
    h.u32(pt.first);
    h.u32(pt.second);
    hash_store(h, store);
  }
  hash_counters(h, r.stats);
  return fp_hex(h.finalize());
}

/// Digest of every TmodResult field, the evaluation counters included.
template <absem::NumDomain N>
std::string tmod_digest(const absem::TmodResult<N>& r) {
  support::Fp128Hasher h;
  h.u32(r.threads);
  h.u32(r.rounds);
  h.u8(r.truncated ? 1 : 0);
  hash_alarms(h, r.may_fail_asserts, r.may_faults, r.uninit_reads);
  h.u32(static_cast<std::uint32_t>(r.races.races.size()));
  for (const absem::TmodRace& race : r.races.races) {
    h.u32(race.stmt1);
    h.u32(race.stmt2);
    h.u8(race.write_write ? 1 : 0);
    h.u8(race.write_read ? 1 : 0);
  }
  for (const std::uint64_t v :
       {r.races.pairs_total, r.races.pruned_mhp, r.races.pruned_lockset, r.interference_facts}) {
    h.u64(v);
  }
  hash_ids(h, r.reached_stmts);
  hash_sizes(h, r.site_sizes);
  h.u32(static_cast<std::uint32_t>(r.accesses.size()));
  for (const absem::AccessRecord& a : r.accesses) {
    h.u32(a.thread);
    h.u32(a.stmt);
    hash_loc(h, a.loc);
    h.u8(a.is_write ? 1 : 0);
    h.u8(a.sync ? 1 : 0);
    h.u64(a.locks);
  }
  for (const auto* m : {&r.guarantees, &r.relies}) {
    hash_map(h, *m, [&](const absem::Interference<N>& i) { hash_store(h, i); });
  }
  hash_counters(h, r.stats);
  return fp_hex(h.finalize());
}

template <absem::NumDomain N>
void add_abs_rows(Matrix& m, const std::string& name, const sem::LoweredProgram& prog,
                  const char* domain) {
  for (const absem::Folding folding : {absem::Folding::Tree, absem::Folding::Clan}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
      absem::AbsOptions opts;
      opts.folding = folding;
      opts.call_string_k = k;
      opts.max_states = kAbsBudget;
      const absem::AbsResult<N> r = absem::AbsExplorer<N>(prog, opts).run();
      EXPECT_FALSE(r.truncated) << name << ' ' << domain;
      m.rows[name + " abs " + domain + (folding == absem::Folding::Tree ? " tree" : " clan") +
             " k" + std::to_string(k)] = abs_digest(r);
    }
  }
}

constexpr std::uint64_t kBudget = 300000;

/// "<configs>/<transitions>/<counter text>" with the to_string() lines
/// joined by ';' so the row stays one golden-file token.
std::string counter_row(const explore::ExploreResult& r) {
  std::string text = r.stats.to_string();
  std::replace(text.begin(), text.end(), '\n', ';');
  return std::to_string(r.num_configs) + "/" + std::to_string(r.num_transitions) + "/" + text;
}

/// The search effort, the truncation verdict, and a digest of the rendered
/// schedule ("none" when no witness was found).
std::string witness_row(const sem::LoweredProgram& prog, const explore::WitnessQuery& q) {
  explore::WitnessStats stats;
  const std::optional<explore::Witness> w = explore::find_witness(prog, q, &stats);
  std::string row = "configs=" + std::to_string(stats.configs) +
                    ";truncated=" + (stats.truncated ? "1" : "0") + ";";
  if (!w.has_value()) return row + "none";
  support::Fp128Hasher h;
  hash_str(h, w->to_string(prog));
  return row + fp_hex(h.finalize());
}

Matrix compute_matrix() {
  Matrix m;
  const fs::path dir = COPAR_SAMPLES_DIR;
  std::vector<fs::path> sample_paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".cop") sample_paths.push_back(entry.path());
  }
  std::sort(sample_paths.begin(), sample_paths.end());
  for (const fs::path& path : sample_paths) {
    const std::string name = path.filename().string();
    const std::string source = read_file(path);
    const auto prog = compile(source);
    for (const explore::Reduction red :
         {explore::Reduction::Full, explore::Reduction::Stubborn}) {
      for (const bool coarsen : {false, true}) {
        for (const unsigned threads : {1u, 4u}) {
          explore::ExploreOptions opts;
          opts.reduction = red;
          opts.coarsen = coarsen;
          opts.threads = threads;
          opts.max_configs = kBudget;
          const explore::ExploreResult r = explore::explore(*prog->lowered, opts);
          std::string cell = std::string(red == explore::Reduction::Full ? "full" : "stubborn");
          cell += coarsen ? "+coarsen" : "";
          cell += " t" + std::to_string(threads);
          m.rows[name + " " + cell] = r.truncated ? "truncated" : explore_digest(r);
        }
      }
    }
    for (const explore::Reduction red :
         {explore::Reduction::Full, explore::Reduction::Stubborn}) {
      for (const bool coarsen : {false, true}) {
        for (const bool sleep : {false, true}) {
          explore::ExploreOptions opts;
          opts.reduction = red;
          opts.coarsen = coarsen;
          opts.sleep_sets = sleep;
          opts.max_configs = kBudget;
          std::string cell = red == explore::Reduction::Full ? "full" : "stubborn";
          cell += coarsen ? "+coarsen" : "";
          cell += sleep ? "+sleep" : "";
          m.rows[name + " counters " + cell + " t1"] =
              counter_row(explore::explore(*prog->lowered, opts));
        }
      }
    }
    {
      // find_deadlock's query, under the shared budget (find_deadlock itself
      // reports no WitnessStats).
      explore::WitnessQuery q;
      q.want_deadlock = true;
      q.explore.max_configs = kBudget;
      m.rows[name + " witness deadlock"] = witness_row(*prog->lowered, q);
    }
    for (const explore::Reduction red :
         {explore::Reduction::Full, explore::Reduction::Stubborn}) {
      explore::WitnessQuery q;
      q.explore.reduction = red;
      q.explore.max_configs = kBudget;
      m.rows[name + " witness any " + (red == explore::Reduction::Full ? "full" : "stubborn")] =
          witness_row(*prog->lowered, q);
    }
    m.rows[name + " check"] = check_digest(*prog, source, name);
    for (const check::Tier tier :
         {check::Tier::Auto, check::Tier::Static, check::Tier::Explore, check::Tier::Tmod}) {
      for (const bool witnesses : {true, false}) {
        check::CheckOptions opts;
        opts.tier = tier;
        opts.witnesses = witnesses;
        m.rows[name + " check " + std::string(check::tier_name(tier)) +
               (witnesses ? " witness" : " no-witness")] =
            check_tier_digest(*prog, source, name, opts);
      }
    }
    add_abs_rows<absdom::FlatInt>(m, name, *prog->lowered, "flat");
    add_abs_rows<absdom::Interval>(m, name, *prog->lowered, "interval");
    add_abs_rows<absdom::Parity>(m, name, *prog->lowered, "parity");
    add_abs_rows<absdom::Sign>(m, name, *prog->lowered, "sign");
    m.rows[name + " tmod interval"] =
        tmod_digest(absem::tmod_analyze<absdom::Interval>(*prog->lowered));
    m.rows[name + " tmod flat"] = tmod_digest(absem::tmod_analyze<absdom::FlatInt>(*prog->lowered));
    // A starved pair budget pins the budget-exhausted race path.
    for (const check::Tier tier : {check::Tier::Auto, check::Tier::Tmod}) {
      check::CheckOptions opts;
      opts.tier = tier;
      opts.pair_budget = 2;
      m.rows[name + " check " + std::string(check::tier_name(tier)) + " pair-budget=2"] =
          check_tier_digest(*prog, source, name, opts);
    }
  }
  return m;
}

fs::path golden_path() { return fs::path(COPAR_GOLDENS_DIR) / "cow_diff.golden"; }

TEST(CowDifferential, EngineMatrixMatchesPreCowGoldens) {
  const Matrix m = compute_matrix();
  ASSERT_FALSE(m.rows.empty());

  if (std::getenv("COPAR_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    for (const auto& [key, digest] : m.rows) out << key << ' ' << digest << '\n';
    GTEST_SKIP() << "goldens regenerated at " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with COPAR_UPDATE_GOLDENS=1 to create)";
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.rfind(' ');
    ASSERT_NE(pos, std::string::npos) << "malformed golden line: " << line;
    golden[line.substr(0, pos)] = line.substr(pos + 1);
  }
  // Every golden row must be reproduced exactly, and no row may disappear
  // (a vanished sample or cell would silently shrink coverage).
  for (const auto& [key, digest] : golden) {
    const auto it = m.rows.find(key);
    ASSERT_NE(it, m.rows.end()) << "golden row no longer computed: " << key;
    EXPECT_EQ(it->second, digest) << "engine output changed for: " << key;
  }
  for (const auto& [key, digest] : m.rows) {
    EXPECT_TRUE(golden.contains(key)) << "new unpinned row (update goldens): " << key;
  }
}

// A successor must never alias its parent's identity: mutating the child
// through the COW seam may not write through shared structure into the
// parent, and the child's canonical identity must be its own.
TEST(CowDifferential, SharedThenMutatedConfigNeverAliasesParent) {
  const auto prog = compile(R"(
    var a = 0;
    var b;
    fun main() {
      b = alloc(4);
      cobegin { a = a + 1; b[0] = 7; } || { a = a + 2; b[1] = 9; } coend;
      assert(a != 0);
    }
  )");
  sem::Configuration root = sem::Configuration::initial(*prog->lowered);
  const std::string root_key = root.canonical_key();
  const auto root_fp = root.canonical_fingerprint();

  // Walk a deterministic schedule; at every step the parent's key must be
  // unaffected by the child's creation and mutation, and key <-> fingerprint
  // must stay in lockstep on both sides.
  sem::Configuration cur = root;
  for (int steps = 0; steps < 1000; ++steps) {
    sem::Pid fire = sem::kNoPid;
    for (sem::Pid pid = 0; pid < cur.processes.size(); ++pid) {
      if (!cur.processes[pid].live()) continue;
      const sem::ActionInfo info = sem::action_info(cur, pid);
      if (info.exists && info.enabled) {
        fire = pid;
        break;
      }
    }
    if (fire == sem::kNoPid) break;
    const std::string parent_key = cur.canonical_key();
    sem::Configuration child = sem::apply_action(cur, fire);
    // The parent is bit-for-bit untouched by the child's mutations.
    EXPECT_EQ(cur.canonical_key(), parent_key);
    EXPECT_EQ(cur.canonical_fingerprint(), sem::Configuration(cur).canonical_fingerprint());
    // The child has its own identity (every action here changes state).
    EXPECT_NE(child.canonical_key(), parent_key);
    EXPECT_NE(child.canonical_fingerprint(), cur.canonical_fingerprint());
    cur = std::move(child);
  }
  EXPECT_EQ(root.canonical_key(), root_key);
  EXPECT_EQ(root.canonical_fingerprint(), root_fp);
}

}  // namespace
}  // namespace copar
