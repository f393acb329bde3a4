// Differential oracle for stubborn_set: the closure-per-seed formulation of
// Algorithm 1 (a straight transcription of the rules in stubborn.h) must
// choose exactly what the one-pass closure chooses — the same expanded pids
// and the same is_full — on every state the full exploration reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/explore/staticinfo.h"
#include "src/explore/stubborn.h"
#include "src/sem/program.h"
#include "src/sem/step.h"
#include "src/workload/philosophers.h"
#include "src/workload/random_programs.h"

namespace copar::explore {
namespace {

using sem::ActionInfo;
using sem::Pid;

// ---- The reference: one closure per enabled seed -------------------------

struct ProcessFuture {
  DynamicBitset reads;
  DynamicBitset writes;
};

ProcessFuture process_future(const sem::Configuration& cfg, Pid pid, const StaticInfo& si) {
  ProcessFuture f;
  for (const sem::Frame& frame : cfg.processes[pid].frames) {
    f.reads |= si.future_reads_at(frame.proc, frame.pc);
    f.writes |= si.future_writes_at(frame.proc, frame.pc);
    if (frame.has_ret_dst && cfg.store.in_bounds(frame.ret_obj, frame.ret_off)) {
      f.writes.set(si.class_of(cfg.store, cfg.store.loc_id(frame.ret_obj, frame.ret_off)));
    }
  }
  return f;
}

struct ActionClasses {
  DynamicBitset reads;
  DynamicBitset writes;
};

ActionClasses action_classes(const sem::Configuration& cfg, const ActionInfo& info,
                             const StaticInfo& si) {
  ActionClasses c;
  info.reads.for_each([&](std::size_t loc) { c.reads.set(si.class_of(cfg.store, loc)); });
  info.writes.for_each([&](std::size_t loc) { c.writes.set(si.class_of(cfg.store, loc)); });
  return c;
}

StubbornChoice reference_stubborn_set(const sem::Configuration& cfg,
                                      const std::vector<ActionInfo>& infos,
                                      const StaticInfo& si) {
  StubbornChoice choice;

  std::vector<const ActionInfo*> enabled;
  for (const ActionInfo& info : infos) {
    if (info.enabled) enabled.push_back(&info);
  }
  if (enabled.empty()) return choice;

  std::unordered_map<Pid, ProcessFuture> futures;
  std::unordered_map<Pid, ActionClasses> classes;
  std::unordered_map<Pid, const ActionInfo*> by_pid;
  for (const ActionInfo& info : infos) by_pid.emplace(info.pid, &info);

  auto future_of = [&](Pid pid) -> const ProcessFuture& {
    auto it = futures.find(pid);
    if (it == futures.end()) it = futures.emplace(pid, process_future(cfg, pid, si)).first;
    return it->second;
  };
  auto classes_of = [&](Pid pid) -> const ActionClasses& {
    auto it = classes.find(pid);
    if (it == classes.end()) {
      it = classes.emplace(pid, action_classes(cfg, *by_pid.at(pid), si)).first;
    }
    return it->second;
  };

  auto closure_from = [&](Pid seed) {
    std::vector<Pid> members = {seed};
    std::vector<bool> in_set(cfg.processes.size(), false);
    in_set[seed] = true;
    std::size_t scan = 0;
    auto add = [&](Pid q) {
      if (q < in_set.size() && !in_set[q]) {
        in_set[q] = true;
        members.push_back(q);
      }
    };
    while (scan < members.size()) {
      const Pid p = members[scan++];
      auto it = by_pid.find(p);
      if (it == by_pid.end()) continue;
      const ActionInfo& ap = *it->second;
      if (ap.enabled) {
        const ActionClasses& cp = classes_of(p);
        for (const ActionInfo& aq : infos) {
          if (aq.pid == p || in_set[aq.pid]) continue;
          if (!aq.enabled && aq.kind == sem::ActionKind::Join) {
            const auto& qpath = cfg.processes[aq.pid].path;
            const auto& ppath = cfg.processes[p].path;
            if (qpath.size() < ppath.size() &&
                std::equal(qpath.begin(), qpath.end(), ppath.begin())) {
              continue;
            }
          }
          const ProcessFuture& fq = future_of(aq.pid);
          if (cp.writes.intersects(fq.reads) || cp.writes.intersects(fq.writes) ||
              cp.reads.intersects(fq.writes)) {
            add(aq.pid);
          }
        }
      } else if (ap.kind == sem::ActionKind::Join) {
        const auto& ppath = cfg.processes[p].path;
        for (const ActionInfo& aq : infos) {
          const auto& qpath = cfg.processes[aq.pid].path;
          if (qpath.size() > ppath.size() &&
              std::equal(ppath.begin(), ppath.end(), qpath.begin())) {
            add(aq.pid);
          }
        }
      } else if (ap.kind == sem::ActionKind::Lock && ap.has_lock_loc) {
        auto owner = cfg.lock_owners->find({ap.lock_obj, ap.lock_off});
        if (owner != cfg.lock_owners->end()) {
          add(owner->second);
        } else {
          const std::uint32_t cls =
              si.class_of(cfg.store, cfg.store.loc_id(ap.lock_obj, ap.lock_off));
          for (const ActionInfo& aq : infos) {
            if (aq.pid == p) continue;
            if (future_of(aq.pid).writes.test(cls)) add(aq.pid);
          }
        }
      } else {
        for (const ActionInfo& aq : infos) add(aq.pid);
      }
    }
    return members;
  };

  std::vector<Pid> best;
  std::size_t best_enabled = SIZE_MAX;
  for (const ActionInfo* seed : enabled) {
    std::vector<Pid> members = closure_from(seed->pid);
    std::size_t n_enabled = 0;
    for (Pid p : members) {
      auto it = by_pid.find(p);
      if (it != by_pid.end() && it->second->enabled) ++n_enabled;
    }
    if (n_enabled < best_enabled || (n_enabled == best_enabled && members.size() < best.size())) {
      best = std::move(members);
      best_enabled = n_enabled;
      if (best_enabled == 1 && best.size() == 1) break;
    }
  }

  for (Pid p : best) {
    auto it = by_pid.find(p);
    if (it != by_pid.end() && it->second->enabled) choice.expand.push_back(p);
  }
  std::sort(choice.expand.begin(), choice.expand.end());
  choice.is_full = (choice.expand.size() == enabled.size());
  return choice;
}

// ---- The comparison -------------------------------------------------------

struct OracleRun {
  std::size_t states = 0;
  std::size_t mismatches = 0;
  /// States with a disabled Lock whose tracked owner has no live action.
  std::size_t dead_owner_states = 0;
  std::string first_mismatch;
};

bool has_dead_lock_owner(const sem::Configuration& cfg, const std::vector<ActionInfo>& infos) {
  for (const ActionInfo& info : infos) {
    if (info.enabled || info.kind != sem::ActionKind::Lock || !info.has_lock_loc) continue;
    const auto owner = cfg.lock_owners->find({info.lock_obj, info.lock_off});
    if (owner == cfg.lock_owners->end()) continue;
    const bool live = std::any_of(infos.begin(), infos.end(),
                                  [&](const ActionInfo& q) { return q.pid == owner->second; });
    if (!live) return true;
  }
  return false;
}

std::string pids(const std::vector<Pid>& v) {
  std::string out;
  for (Pid p : v) out += (out.empty() ? "" : ",") + std::to_string(p);
  return "{" + out + "}";
}

/// Walks every state the full exploration of `source` reaches (breadth
/// first, at most `cap` states) and compares the two closures on each.
OracleRun run_oracle(std::string_view source, std::size_t cap = 200000) {
  const auto prog = compile(source);
  const StaticInfo si(*prog->lowered);
  OracleRun run;
  std::unordered_set<support::Fingerprint, support::FingerprintHash> seen;
  std::deque<sem::Configuration> queue;
  sem::Configuration init = sem::Configuration::initial(*prog->lowered);
  seen.insert(init.canonical_fingerprint());
  queue.push_back(std::move(init));
  while (!queue.empty() && run.states < cap) {
    const sem::Configuration cfg = std::move(queue.front());
    queue.pop_front();
    run.states += 1;
    const std::vector<ActionInfo> infos = sem::all_action_infos(cfg);
    if (has_dead_lock_owner(cfg, infos)) run.dead_owner_states += 1;
    const StubbornChoice got = stubborn_set(cfg, infos, si);
    const StubbornChoice want = reference_stubborn_set(cfg, infos, si);
    if (got.expand != want.expand || got.is_full != want.is_full) {
      if (run.mismatches++ == 0) {
        run.first_mismatch = "state #" + std::to_string(run.states) + ": one-pass " +
                             pids(got.expand) + (got.is_full ? " full" : "") + ", reference " +
                             pids(want.expand) + (want.is_full ? " full" : "");
      }
    }
    for (const ActionInfo& info : infos) {
      if (!info.enabled) continue;
      sem::Configuration succ = sem::apply_action(cfg, info);
      if (seen.insert(succ.canonical_fingerprint()).second) queue.push_back(std::move(succ));
    }
  }
  return run;
}

void expect_agreement(std::string_view source, const std::string& what) {
  const OracleRun run = run_oracle(source);
  EXPECT_GT(run.states, 0u) << what;
  EXPECT_EQ(run.mismatches, 0u) << what << ": " << run.first_mismatch;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(StubbornOracle, Samples) {
  std::size_t samples = 0;
  for (const auto& entry : std::filesystem::directory_iterator(COPAR_SAMPLES_DIR)) {
    if (entry.path().extension() != ".cop") continue;
    samples += 1;
    // busy_wait and unbounded_counter have unbounded state spaces; the cap
    // keeps their walk to a prefix.
    const OracleRun run = run_oracle(read_file(entry.path()), 20000);
    EXPECT_GT(run.states, 0u) << entry.path();
    EXPECT_EQ(run.mismatches, 0u) << entry.path() << ": " << run.first_mismatch;
  }
  EXPECT_GE(samples, 11u);
}

TEST(StubbornOracle, RandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    expect_agreement(workload::random_program(seed), "seed " + std::to_string(seed));
  }
  workload::RandomOptions wide;
  wide.num_branches = 3;
  wide.max_branch_stmts = 3;
  for (std::uint64_t seed = 1000; seed < 1050; ++seed) {
    expect_agreement(workload::random_program(seed, wide), "wide seed " + std::to_string(seed));
  }
  workload::RandomOptions doall;
  doall.use_doall = true;
  doall.max_branch_stmts = 3;
  for (std::uint64_t seed = 2000; seed < 2050; ++seed) {
    expect_agreement(workload::random_program(seed, doall),
                     "doall seed " + std::to_string(seed));
  }
}

TEST(StubbornOracle, DiningPhilosophers) {
  for (std::size_t n = 3; n <= 6; ++n) {
    for (const bool left_handed : {false, true}) {
      expect_agreement(workload::dining_philosophers(n, left_handed),
                       "philosophers n=" + std::to_string(n) + (left_handed ? " left" : ""));
    }
  }
}

TEST(StubbornOracle, SeventyLiveProcessesNeedTwoWordRows) {
  // 70 branches live at once, five classes of conflicting writers plus one
  // lock: the relation has more nodes than a word has bits.
  std::string src = "var m = 0; var x0; var x1; var x2; var x3; var x4;\nfun main() {\n  cobegin\n";
  for (int i = 0; i < 70; ++i) {
    if (i > 0) src += "  ||\n";
    src += i % 7 == 0 ? "    { lock(m); x" + std::to_string(i % 5) + " = 1; unlock(m); }\n"
                      : "    { x" + std::to_string(i % 5) + " = " + std::to_string(i) + "; }\n";
  }
  src += "  coend;\n}\n";
  const OracleRun run = run_oracle(src, 300);
  EXPECT_EQ(run.states, 300u);
  EXPECT_EQ(run.mismatches, 0u) << run.first_mismatch;
}

TEST(StubbornOracle, DeadLockOwnerCountsAsMember) {
  // The first branch ends holding m, so the second blocks on m forever with
  // an owner that has no action: a closure member that pulls in nothing.
  // The third branch's closure is {itself, the second, the dead owner}; the
  // fourth's is {itself, the fifth} (the fifth waits on n, which the fourth
  // holds). Counting the dead owner is what makes the later seed win.
  const OracleRun run = run_oracle(R"(
    var m = 0; var n = 0; var x = 0; var z = 0;
    fun main() {
      cobegin
        { lock(m); }
      ||
        { lock(m); x = 2; }
      ||
        { x = 1; x = 3; }
      ||
        { lock(n); z = 1; z = 2; unlock(n); }
      ||
        { lock(n); z = 3; unlock(n); }
      coend;
    }
  )");
  EXPECT_GT(run.dead_owner_states, 0u);
  EXPECT_EQ(run.mismatches, 0u) << run.first_mismatch;
}

}  // namespace
}  // namespace copar::explore
