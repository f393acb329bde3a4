#include "src/explore/stubborn.h"

#include <algorithm>
#include <bit>

#include "src/explore/staticinfo.h"

namespace copar::explore {

using sem::ActionInfo;
using sem::Pid;

bool actions_conflict(const ActionInfo& a, const ActionInfo& b) {
  return a.writes.intersects(b.writes) || a.writes.intersects(b.reads) ||
         a.reads.intersects(b.writes);
}

namespace {

using Word = std::uint64_t;

constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

void or_words(Word* dst, std::span<const Word> src, std::size_t stride) {
  const std::size_t n = std::min(src.size(), stride);
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void set_bit(Word* words, std::size_t bit) { words[bit / 64] |= Word{1} << (bit % 64); }

bool test_bit(const Word* words, std::size_t bit) {
  return ((words[bit / 64] >> (bit % 64)) & 1) != 0;
}

/// True when `prefix` is a strict prefix of `path` (`path`'s process is a
/// descendant of `prefix`'s).
bool strict_prefix(const std::vector<sem::PathElem>& prefix,
                   const std::vector<sem::PathElem>& path) {
  return prefix.size() < path.size() && std::equal(prefix.begin(), prefix.end(), path.begin());
}

/// The buffers behind Closure: one per thread, reused across calls.
struct Scratch {
  std::vector<Word> matrix;   // n rows of nw words
  std::vector<Word> futures;  // n × (reads, writes) of cw words
  std::vector<Word> actions;  // n × (reads, writes) of cw words
  std::vector<std::uint8_t> row_done, future_done, action_done;
  std::vector<Word> enabled, reach, best;
  std::vector<std::uint32_t> worklist;
  std::vector<Pid> sinks;
};

thread_local Scratch scratch;

/// The must-include relation of one state over its nodes: node i < n is the
/// live process infos[i]; nodes n.. are lock owners that are not live (they
/// count as members of a closure but pull in nothing). Rows, per-process
/// future classes and next-action classes are flat words, each filled on
/// first use.
class Closure {
 public:
  Closure(const sem::Configuration& cfg, const std::vector<ActionInfo>& infos,
          const StaticInfo& si);

  /// The chosen closure: fewest enabled members, then fewest members, the
  /// first enabled seed (in `infos` order) winning ties.
  StubbornChoice choose();

 private:
  // Row fills for rule 1 (enabled node) and rule 2 (disabled node).
  const Word* row(std::size_t i);
  void fill_enabled_row(std::size_t i, Word* out);
  void fill_disabled_row(std::size_t i, Word* out);
  // Node of a lock owner that has no live ActionInfo.
  std::size_t sink_node(Pid pid);

  // Future classes (reads, writes) of live process i.
  const Word* future(std::size_t i);
  // Next-action classes (reads, writes) of live process i.
  const Word* action(std::size_t i);

  const sem::Configuration& cfg_;
  const std::vector<ActionInfo>& infos_;
  const StaticInfo& si_;
  Scratch& s_;
  std::size_t n_;     // live processes
  std::size_t cw_;    // words per class set
  std::size_t nw_;    // words per node set
};

Closure::Closure(const sem::Configuration& cfg, const std::vector<ActionInfo>& infos,
                 const StaticInfo& si)
    : cfg_(cfg),
      infos_(infos),
      si_(si),
      s_(scratch),
      n_(infos.size()),
      cw_(words_for(si.num_classes())) {
  // Each disabled Lock may name one owner that is not live: that bounds the
  // sink nodes.
  std::size_t locks = 0;
  for (const ActionInfo& info : infos) {
    if (!info.enabled && info.kind == sem::ActionKind::Lock) ++locks;
  }
  nw_ = words_for(n_ + locks);
  s_.matrix.resize(n_ * nw_);
  s_.futures.resize(n_ * 2 * cw_);
  s_.actions.resize(n_ * 2 * cw_);
  s_.row_done.assign(n_, 0);
  s_.future_done.assign(n_, 0);
  s_.action_done.assign(n_, 0);
  s_.enabled.assign(nw_, 0);
  s_.reach.resize(nw_);
  s_.best.resize(nw_);
  s_.sinks.clear();
  for (std::size_t i = 0; i < n_; ++i) {
    if (infos[i].enabled) set_bit(s_.enabled.data(), i);
  }
}

const Word* Closure::future(std::size_t i) {
  Word* f = &s_.futures[i * 2 * cw_];
  if (s_.future_done[i] != 0) return f;
  s_.future_done[i] = 1;
  std::fill_n(f, 2 * cw_, 0);
  Word* writes = f + cw_;
  // Point-sensitive: each frame contributes only what lies ahead of its pc
  // (outer frames' pcs already point at the continuation after their call).
  for (const sem::Frame& frame : cfg_.processes[infos_[i].pid].frames) {
    or_words(f, si_.future_reads_at(frame.proc, frame.pc).words(), cw_);
    or_words(writes, si_.future_writes_at(frame.proc, frame.pc).words(), cw_);
    // A frame's pending return-value write targets a cell captured at call
    // time; it is in no point-future (the caller's pc is already past the
    // call), so add it from the dynamic frame state.
    if (frame.has_ret_dst && cfg_.store.in_bounds(frame.ret_obj, frame.ret_off)) {
      set_bit(writes, si_.class_of(cfg_.store, cfg_.store.loc_id(frame.ret_obj, frame.ret_off)));
    }
  }
  return f;
}

const Word* Closure::action(std::size_t i) {
  Word* a = &s_.actions[i * 2 * cw_];
  if (s_.action_done[i] != 0) return a;
  s_.action_done[i] = 1;
  std::fill_n(a, 2 * cw_, 0);
  const ActionInfo& info = infos_[i];
  info.reads.for_each([&](std::size_t loc) { set_bit(a, si_.class_of(cfg_.store, loc)); });
  info.writes.for_each([&](std::size_t loc) { set_bit(a + cw_, si_.class_of(cfg_.store, loc)); });
  return a;
}

std::size_t Closure::sink_node(Pid pid) {
  std::vector<Pid>& sinks = s_.sinks;
  const auto it = std::find(sinks.begin(), sinks.end(), pid);
  if (it != sinks.end()) return n_ + static_cast<std::size_t>(it - sinks.begin());
  sinks.push_back(pid);
  return n_ + sinks.size() - 1;
}

const Word* Closure::row(std::size_t i) {
  Word* out = &s_.matrix[i * nw_];
  if (s_.row_done[i] != 0) return out;
  s_.row_done[i] = 1;
  std::fill_n(out, nw_, 0);
  if (infos_[i].enabled) {
    fill_enabled_row(i, out);
  } else {
    fill_disabled_row(i, out);
  }
  return out;
}

void Closure::fill_enabled_row(std::size_t i, Word* out) {
  // Rule 1: every process that may EVER act dependently with i's action:
  // the action writes a class q may access, or reads a class q may write.
  const Word* a = action(i);
  const Word* a_writes = a + cw_;
  const auto& ppath = cfg_.processes[infos_[i].pid].path;
  for (std::size_t q = 0; q < n_; ++q) {
    if (q == i) continue;
    const ActionInfo& aq = infos_[q];
    // A process blocked at a Join that (transitively) waits on i can
    // execute nothing until i terminates, and every action of i — including
    // this one — precedes that; its future cannot be reordered before the
    // action, so it never needs to join the stubborn set for it.
    if (!aq.enabled && aq.kind == sem::ActionKind::Join &&
        strict_prefix(cfg_.processes[aq.pid].path, ppath)) {
      continue;
    }
    const Word* f = future(q);
    const Word* f_writes = f + cw_;
    for (std::size_t w = 0; w < cw_; ++w) {
      if ((a_writes[w] & (f[w] | f_writes[w])) != 0 || (a[w] & f_writes[w]) != 0) {
        set_bit(out, q);
        break;
      }
    }
  }
}

void Closure::fill_disabled_row(std::size_t i, Word* out) {
  // Rule 2: the processes that can enable i.
  const ActionInfo& ap = infos_[i];
  if (ap.kind == sem::ActionKind::Join) {
    // Descendants: processes whose path strictly extends i's.
    const auto& ppath = cfg_.processes[ap.pid].path;
    for (std::size_t q = 0; q < n_; ++q) {
      if (strict_prefix(ppath, cfg_.processes[infos_[q].pid].path)) set_bit(out, q);
    }
  } else if (ap.kind == sem::ActionKind::Lock && ap.has_lock_loc) {
    const auto owner = cfg_.lock_owners->find({ap.lock_obj, ap.lock_off});
    if (owner != cfg_.lock_owners->end()) {
      const Pid pid = owner->second;
      const auto it = std::find_if(infos_.begin(), infos_.end(),
                                   [pid](const ActionInfo& q) { return q.pid == pid; });
      set_bit(out, it != infos_.end() ? static_cast<std::size_t>(it - infos_.begin())
                                      : sink_node(pid));
    } else {
      // Held without a tracked owner (user wrote the cell directly): anyone
      // who may write the cell's class could free it.
      const std::uint32_t cls =
          si_.class_of(cfg_.store, cfg_.store.loc_id(ap.lock_obj, ap.lock_off));
      for (std::size_t q = 0; q < n_; ++q) {
        if (q == i) continue;
        if (test_bit(future(q) + cw_, cls)) set_bit(out, q);
      }
    }
  } else {
    // Unknown disabled kind: be safe, include everyone.
    for (std::size_t q = 0; q < n_; ++q) set_bit(out, q);
  }
}

StubbornChoice Closure::choose() {
  std::size_t best_enabled = SIZE_MAX;
  std::size_t best_members = SIZE_MAX;
  for (std::size_t seed = 0; seed < n_; ++seed) {
    if (!infos_[seed].enabled) continue;
    // The closure from `seed`: everything reachable over the rows_.
    std::fill(s_.reach.begin(), s_.reach.end(), 0);
    set_bit(s_.reach.data(), seed);
    std::size_t members = 1;
    std::size_t enabled = 1;
    s_.worklist.assign(1, static_cast<std::uint32_t>(seed));
    while (!s_.worklist.empty()) {
      const std::size_t u = s_.worklist.back();
      s_.worklist.pop_back();
      if (u >= n_) continue;  // a lock owner that is not live
      const Word* r = row(u);
      for (std::size_t w = 0; w < nw_; ++w) {
        Word fresh = r[w] & ~s_.reach[w];
        if (fresh == 0) continue;
        s_.reach[w] |= fresh;
        members += static_cast<std::size_t>(std::popcount(fresh));
        enabled += static_cast<std::size_t>(std::popcount(fresh & s_.enabled[w]));
        for (; fresh != 0; fresh &= fresh - 1) {
          s_.worklist.push_back(static_cast<std::uint32_t>(w * 64 + std::countr_zero(fresh)));
        }
      }
    }
    if (enabled > best_enabled || (enabled == best_enabled && members >= best_members)) continue;
    s_.best.swap(s_.reach);
    best_enabled = enabled;
    best_members = members;
    if (best_enabled == 1 && best_members == 1) break;  // perfectly local action
  }

  StubbornChoice choice;
  std::size_t all_enabled = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!infos_[i].enabled) continue;
    ++all_enabled;
    if (test_bit(s_.best.data(), i)) choice.expand.push_back(infos_[i].pid);
  }
  std::sort(choice.expand.begin(), choice.expand.end());
  choice.is_full = (choice.expand.size() == all_enabled);
  return choice;
}

}  // namespace

StubbornChoice stubborn_set(const sem::Configuration& cfg, const std::vector<ActionInfo>& infos,
                            const StaticInfo& si) {
  if (std::none_of(infos.begin(), infos.end(), [](const ActionInfo& i) { return i.enabled; })) {
    return {};
  }
  return Closure(cfg, infos, si).choose();
}

}  // namespace copar::explore
