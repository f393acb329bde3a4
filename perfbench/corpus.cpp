#include "perfbench/corpus.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "src/workload/philosophers.h"

namespace perfbench {

namespace {

/// splitmix64: a fixed, portable generator, so a seed names the same corpus
/// on every standard library (std::uniform_int_distribution does not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Uniform in [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::size_t>(hi - lo + 1)));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Mixes a job's slot index into the corpus seed, so every job draws from
/// its own stream and adding a job does not reshuffle the others.
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t slot) {
  Rng r(seed ^ (slot * 0xd1342543de82ef95ULL));
  return r.next();
}

/// Source text built line by line, so generators know the line of every
/// statement they emit (race findings are matched by line).
class Source {
 public:
  std::uint32_t line(const std::string& text) {
    text_ += text;
    text_ += '\n';
    return ++lines_;
  }
  [[nodiscard]] std::string take() { return std::move(text_); }

 private:
  std::string text_;
  std::uint32_t lines_ = 0;
};

/// One statement of a generated thread, for computing race pairs.
struct Access {
  std::uint32_t line = 0;
  std::size_t thread = 0;
  std::set<std::string> reads;
  std::set<std::string> writes;
  std::string lock;  // held lock ("" none)
};

/// Every pair of statements in different threads that access a common
/// variable, at least one writing, without holding a common lock.
std::set<LinePair> racing_pairs(const std::vector<Access>& acc) {
  auto touches = [](const std::set<std::string>& w, const Access& o) {
    for (const std::string& v : w) {
      if (o.reads.contains(v) || o.writes.contains(v)) return true;
    }
    return false;
  };
  std::set<LinePair> out;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    for (std::size_t j = i + 1; j < acc.size(); ++j) {
      const Access& a = acc[i];
      const Access& b = acc[j];
      if (a.thread == b.thread) continue;
      if (!a.lock.empty() && a.lock == b.lock) continue;
      if (touches(a.writes, b) || touches(b.writes, a)) out.insert(line_pair(a.line, b.line));
    }
  }
  return out;
}

std::string str(std::int64_t v) { return std::to_string(v); }

}  // namespace

Job philosophers(std::size_t n, bool left_handed) {
  Job j;
  j.name = "philosophers" + std::to_string(n) + (left_handed ? "L" : "R");
  j.source = copar::workload::dining_philosophers(n, left_handed);
  j.answer.deadlock = !left_handed;
  // Philosopher 0 eats exactly once on every completed run; the deadlock
  // terminal (everyone holding one fork) leaves it hungry.
  j.answer.watch = "meals0";
  j.answer.watch_max = 1;
  j.answer.watch_unique = left_handed;
  // Each meals counter has one writer and locks are synchronization: no
  // statement pair races.
  j.answer.races_bounded = true;
  return j;
}

Job filter_lock(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> id(n);
  std::iota(id.begin(), id.end(), 1);
  rng.shuffle(id);

  Source s;
  std::string decl;
  for (std::size_t i = 0; i < n; ++i) decl += "var level" + std::to_string(i) + "; ";
  s.line(decl);
  decl.clear();
  for (std::size_t l = 1; l < n; ++l) decl += "var victim" + std::to_string(l) + "; ";
  s.line(decl + "var in_cs;");
  s.line("fun main() {");
  s.line("  cobegin");
  Job j;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string me = std::to_string(i);
    if (i > 0) s.line("  ||");
    s.line("    {");
    for (std::size_t l = 1; l < n; ++l) {
      const std::string lv = std::to_string(l);
      s.line("      level" + me + " = " + lv + ";");
      s.line("      victim" + lv + " = " + str(id[i]) + ";");
      std::string others;
      for (std::size_t k = 0; k < n; ++k) {
        if (k == i) continue;
        if (!others.empty()) others += " or ";
        others += "level" + std::to_string(k) + " >= " + lv;
      }
      s.line("      while ((" + others + ") and victim" + lv + " == " + str(id[i]) +
             ") { skip; }");
    }
    j.answer.race_free_lines.insert(s.line("      in_cs = in_cs + 1;"));
    j.answer.race_free_lines.insert(s.line("      assert(in_cs == 1);"));
    j.answer.race_free_lines.insert(s.line("      in_cs = in_cs - 1;"));
    s.line("      level" + me + " = 0;");
    s.line("    }");
  }
  s.line("  coend;");
  s.line("}");
  j.name = "filter" + std::to_string(n);
  j.source = s.take();
  j.answer.watch = "in_cs";
  j.answer.watch_max = 0;
  j.answer.watch_unique = true;
  return j;
}

Job doall_histogram(std::size_t n, bool locked, std::uint64_t seed) {
  // bins[i] = a*i: which partial sums coincide, and so how many
  // configurations there are, does not depend on the seeded a.
  Rng rng(seed);
  const std::int64_t a = rng.between(1, 9);
  const auto nn = static_cast<std::int64_t>(n);

  Job j;
  Source s;
  s.line("var bins; var total; var m; var n = " + str(nn) + ";");
  s.line("fun main() {");
  s.line("  bins = alloc(" + str(nn) + ");");
  s.line("  doall (i = 0 .. n - 1) {");
  const std::uint32_t fill = s.line("    bins[i] = " + str(a) + " * i;");
  s.line("  }");
  s.line("  doall (i = 0 .. n - 1) {");
  if (locked) {
    s.line("    lock(m);");
    s.line("    total = total + bins[i];");
    s.line("    unlock(m);");
  } else {
    const std::uint32_t rd = s.line("    var t = total;");
    const std::uint32_t wr = s.line("    total = t + bins[i];");
    if (n >= 2) {
      j.answer.must_race = {line_pair(rd, wr), line_pair(wr, wr)};
      j.answer.may_race = {line_pair(rd, rd)};
    }
  }
  s.line("  }");
  s.line("}");
  // copar's race predicate is co-enabledness of the two statements, not
  // equality of the cells they touch: two doall instances of the fill (or of
  // `var t = total`) write distinct cells but may still be reported.
  if (n >= 2) j.answer.may_race.insert(line_pair(fill, fill));
  j.answer.races_bounded = true;

  j.name = std::string("doall") + std::to_string(n) + (locked ? "L" : "U");
  j.source = s.take();
  j.answer.watch = "total";
  j.answer.watch_max = a * nn * (nn - 1) / 2;
  // An unlocked sum loses an update on some schedule; losing the last bin
  // (a*(n-1) > 0) is what makes the total vary.
  j.answer.watch_unique = locked || n < 2;
  return j;
}

Job counters(std::size_t threads, std::size_t counters, std::size_t per_thread,
             std::uint64_t seed) {
  Rng rng(seed);
  Source s;
  std::string decl;
  for (std::size_t c = 0; c < counters; ++c) {
    decl += "var c" + std::to_string(c) + "; var m" + std::to_string(c) + "; ";
  }
  s.line(decl);
  s.line("fun main() {");
  s.line("  cobegin");
  std::vector<Access> acc;
  for (std::size_t t = 0; t < threads; ++t) {
    if (t > 0) s.line("  ||");
    s.line("    {");
    std::vector<std::size_t> pick(counters);
    std::iota(pick.begin(), pick.end(), 0);
    rng.shuffle(pick);
    pick.resize(std::min(per_thread, counters));
    for (std::size_t k = 0; k < pick.size(); ++k) {
      const std::string c = std::to_string(pick[k]);
      Access a;
      a.thread = t;
      a.reads = a.writes = {"c" + c};
      // Every other increment is locked: the seed picks the counters, not
      // the shape of the thread, which keeps the cost of a seed steady.
      if ((t + k) % 2 == 1) {
        a.lock = "m" + c;
        s.line("      lock(m" + c + ");");
        a.line = s.line("      c" + c + " = c" + c + " + 1;");
        s.line("      unlock(m" + c + ");");
      } else {
        a.line = s.line("      c" + c + " = c" + c + " + 1;");
      }
      acc.push_back(std::move(a));
    }
    s.line("    }");
  }
  s.line("  coend;");
  s.line("}");

  Job j;
  j.name = "counters" + std::to_string(threads) + "x" + std::to_string(per_thread) + "of" +
           std::to_string(counters);
  j.source = s.take();
  j.answer.must_race = racing_pairs(acc);
  j.answer.races_bounded = true;
  return j;
}

Job spin_loops(std::size_t threads, std::size_t globals, std::size_t stmts, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t racy = std::max<std::size_t>(globals / 2, 1);
  const std::size_t guarded = std::max<std::size_t>(globals - racy, 1);
  Source s;
  s.line("var stop;");
  std::string decl;
  for (std::size_t i = 0; i < racy; ++i) decl += "var r" + std::to_string(i) + "; ";
  s.line(decl);
  decl.clear();
  for (std::size_t i = 0; i < guarded; ++i) {
    decl += "var g" + std::to_string(i) + "; var m" + std::to_string(i) + "; ";
  }
  s.line(decl);
  s.line("fun main() {");
  s.line("  cobegin");
  std::vector<Access> acc;
  for (std::size_t t = 0; t < threads; ++t) {
    if (t > 0) s.line("  ||");
    s.line("    {");
    Access test;
    test.thread = t;
    test.reads = {"stop"};
    test.line = s.line("      while (stop == 0) {");
    acc.push_back(test);
    std::vector<char> locked(stmts, 0);
    for (std::size_t k = 0; k < stmts / 2; ++k) locked[k] = 1;
    rng.shuffle(locked);
    for (std::size_t k = 0; k < stmts; ++k) {
      Access a;
      a.thread = t;
      const std::string add = str(rng.between(1, 9));
      if (locked[k] != 0) {
        const std::string g = std::to_string(rng.below(guarded));
        a.lock = "m" + g;
        a.reads = a.writes = {"g" + g};
        a.line = s.line("        lock(m" + g + "); g" + g + " = g" + g + " + " + add +
                        "; unlock(m" + g + ");");
      } else {
        const std::string dst = "r" + std::to_string(rng.below(racy));
        const std::string src = rng.below(4) == 0 ? "g" + std::to_string(rng.below(guarded))
                                                  : "r" + std::to_string(rng.below(racy));
        a.reads = {src};
        a.writes = {dst};
        a.line = s.line("        " + dst + " = " + src + " + " + add + ";");
      }
      acc.push_back(std::move(a));
    }
    s.line("      }");
    s.line("    }");
  }
  s.line("  ||");
  Access stop;
  stop.thread = threads;
  stop.writes = {"stop"};
  stop.line = s.line("    { stop = 1; }");
  acc.push_back(stop);
  s.line("  coend;");
  s.line("}");

  Job j;
  j.name = "spin" + std::to_string(threads) + "x" + std::to_string(stmts);
  j.source = s.take();
  j.answer.must_race = racing_pairs(acc);
  return j;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::ExploreSeq: return "explore_seq";
    case Workload::ExplorePar: return "explore_par";
    case Workload::CheckAuto: return "check_auto";
    case Workload::CheckTmod: return "check_tmod";
  }
  return "?";
}

bool parse_workload(std::string_view name, Workload& out) {
  for (const Workload w : kWorkloads) {
    if (workload_name(w) == name) {
      out = w;
      return true;
    }
  }
  return false;
}

namespace {

/// One slot of a corpus recipe: `count` jobs built by `make(job seed)`.
struct Slot {
  std::size_t count;
  std::function<Job(std::uint64_t)> make;
};

/// Sizes are fixed per workload, so every seed costs about the same: most
/// jobs are small and the largest take about a second.
std::vector<Slot> recipe(Workload w) {
  auto phil = [](std::size_t n, bool left) {
    return [n, left](std::uint64_t) { return philosophers(n, left); };
  };
  auto filt = [](std::size_t n) { return [n](std::uint64_t s) { return filter_lock(n, s); }; };
  auto hist = [](std::size_t n, bool locked) {
    return [n, locked](std::uint64_t s) { return doall_histogram(n, locked, s); };
  };
  auto cnt = [](std::size_t t, std::size_t c, std::size_t k) {
    return [t, c, k](std::uint64_t s) { return counters(t, c, k, s); };
  };
  auto spin = [](std::size_t t, std::size_t g, std::size_t k) {
    return [t, g, k](std::uint64_t s) { return spin_loops(t, g, k, s); };
  };
  std::vector<Slot> r;
  switch (w) {
    case Workload::ExploreSeq:
    case Workload::ExplorePar:
      for (std::size_t n = 3; n <= 10; ++n) {
        r.push_back({2, phil(n, false)});
        r.push_back({2, phil(n, true)});
      }
      r.push_back({1, phil(14, false)});
      r.push_back({1, phil(14, true)});
      r.push_back({16, filt(2)});
      r.push_back({16, filt(3)});
      r.push_back({6, filt(4)});
      for (std::size_t n = 3; n <= 10; ++n) r.push_back({2, hist(n, true)});
      for (std::size_t n = 2; n <= 5; ++n) r.push_back({3, hist(n, false)});
      break;
    case Workload::CheckAuto:
      r.push_back({10, cnt(2, 3, 2)});
      r.push_back({10, cnt(3, 4, 2)});
      r.push_back({10, cnt(4, 4, 2)});
      r.push_back({8, cnt(4, 6, 3)});
      r.push_back({2, cnt(5, 5, 2)});
      r.push_back({14, filt(2)});
      r.push_back({2, filt(3)});
      for (std::size_t n = 3; n <= 5; ++n) {
        const std::size_t k = n == 5 ? 5 : n == 4 ? 3 : 4;
        r.push_back({k, phil(n, false)});
        r.push_back({k, phil(n, true)});
      }
      for (std::size_t n = 2; n <= 6; ++n) {
        r.push_back({2, hist(n, true)});
        r.push_back({2, hist(n, false)});
      }
      break;
    case Workload::CheckTmod:
      r.push_back({40, spin(8, 16, 6)});
      r.push_back({30, spin(8, 16, 12)});
      r.push_back({14, spin(12, 24, 12)});
      r.push_back({12, spin(16, 32, 12)});
      r.push_back({2, spin(20, 40, 20)});
      r.push_back({1, spin(24, 48, 24)});
      r.push_back({1, spin(32, 64, 24)});
      break;
  }
  return r;
}

}  // namespace

std::vector<Job> make_corpus(Workload w, std::uint64_t seed) {
  std::vector<Job> jobs;
  std::uint64_t slot = 0;
  for (const Slot& s : recipe(w)) {
    for (std::size_t i = 0; i < s.count; ++i) jobs.push_back(s.make(job_seed(seed, slot++)));
  }
  Rng order(seed);
  order.shuffle(jobs);
  return jobs;
}

}  // namespace perfbench
