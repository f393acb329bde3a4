// Configurations: the states of the standard (instrumented) semantics.
//
// A configuration is a shared store plus a set of processes, each a stack of
// frames (control point + frame object) carrying its procedure string. The
// exploration engine deduplicates configurations by a *canonical key*:
//
//   - live processes are ordered by their fork path — the sequence of
//     (cobegin site, branch index) pairs from the root — which is
//     independent of interleaving, unlike raw pids;
//   - store objects are renumbered by a deterministic reachability traversal
//     from the globals frame and the live processes (this doubles as a
//     garbage collection: unreachable objects do not affect the key);
//   - terminated processes, transient pids, and fork sequence counters are
//     excluded from the key.
//
// Birthdates and procedure strings are *included* in the key: this is the
// paper's instrumented semantics, whose states carry that history.
//
// The engines deduplicate by a 128-bit *fingerprint* of that canonical
// form rather than by the key string. It is built from digests cached on
// the copy-on-write handles — one per process (process_digest) and one per
// store object (object_digest), each covering what renumbering leaves
// alone — plus the renumbered references, so a transition that changes one
// process and one object rehashes only those two. Whoever mutates a handle
// clears its digest; the owner of a fresh successor recomputes the cleared
// ones (seal(), called by apply_action) before the successor is shared, and
// a digest is never stored into a handle that may be shared. A missing
// digest is computed on the fly, so hand-built configurations fingerprint
// correctly too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/sem/lower.h"
#include "src/sem/procstring.h"
#include "src/sem/store.h"
#include "src/sem/value.h"
#include "src/support/cow.h"
#include "src/support/fingerprint.h"

namespace copar::sem {

using Pid = std::uint32_t;
constexpr Pid kNoPid = 0xffffffffu;

struct Frame {
  std::uint32_t proc = 0;  // lowered proc id
  std::uint32_t pc = 0;
  ObjId frame_obj = kNoObj;
  /// Where this activation's Return writes its value in the caller
  /// (captured at call time).
  bool has_ret_dst = false;
  ObjId ret_obj = kNoObj;
  std::uint32_t ret_off = 0;
};

/// Interleaving-independent identity of a forked process: one element per
/// ancestor cobegin, (site statement id, branch index). Among live
/// processes, paths are unique — a parent has at most one outstanding fork
/// per cobegin site.
struct PathElem {
  std::uint32_t site = 0;
  std::uint32_t branch = 0;
  friend bool operator==(const PathElem&, const PathElem&) = default;
  friend auto operator<=>(const PathElem&, const PathElem&) = default;
};

enum class ProcStatus : std::uint8_t { Running, Terminated, Faulted };

struct Process {
  ProcStatus status = ProcStatus::Running;
  std::vector<Frame> frames;  // back() = innermost
  ProcString pstr;
  Pid parent = kNoPid;
  std::uint32_t pending_children = 0;
  std::vector<PathElem> path;
  /// Cached process_digest(*this); valid iff `sealed`. Written only by the
  /// table that owns the process exclusively (ProcessTable::seal).
  support::Fingerprint digest;
  bool sealed = false;

  [[nodiscard]] bool live() const noexcept { return status == ProcStatus::Running; }
  [[nodiscard]] const Frame& top() const { return frames.back(); }
  [[nodiscard]] Frame& top() { return frames.back(); }
};

/// Kinds of runtime faults a process can incur; part of configuration
/// identity (stmt id, fault kind).
enum class Fault : std::uint8_t {
  DerefNull,
  DerefNonPointer,
  OutOfBounds,
  TypeError,
  DivByZero,
  NotAFunction,
  ArityMismatch,
  UnlockNotHeld,
  NegativeAlloc,
};

std::string_view fault_name(Fault f);

/// Deep size of a process (frame stack + procedure string + fork path), the
/// handle accounting unit for the frontier-bytes gauge.
[[nodiscard]] std::size_t process_bytes(const Process& p) noexcept;

/// The canonical digest of a process: its fork path, procedure string,
/// pending-children count, and each frame's proc, pc, return flag and
/// return offset — every field renumbering leaves alone. The frame and
/// return objects are added, renumbered, by the canonical walk.
[[nodiscard]] support::Fingerprint process_digest(const Process& p) noexcept;

/// The process vector of a configuration, with structural sharing: copying
/// a ProcessTable copies one refcounted handle per process. Reads go
/// through const access; the stepper clones exactly the processes it
/// touches via mutate() (normally just the stepped pid). Handles are
/// stable: references returned by mutate() survive push_back, unlike the
/// plain-vector representation this replaces.
class ProcessTable {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return procs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return procs_.empty(); }
  [[nodiscard]] const Process& operator[](Pid pid) const { return *procs_[pid]; }

  /// The COW seam: mutable access to one process, cloning it first iff its
  /// handle is shared with another table. Same ownership contract as
  /// Store::mutate, and like it clears the process's cached digest.
  [[nodiscard]] Process& mutate(Pid pid);

  void push_back(Process&& p);

  /// Recomputes the digests mutate() and push_back() cleared, for the live
  /// processes this table owns alone (as Store::seal).
  void seal();

  /// Const forward iterator dereferencing through the handles, so existing
  /// `for (const Process& p : cfg.processes)` loops keep working.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Process;
    using difference_type = std::ptrdiff_t;
    using pointer = const Process*;
    using reference = const Process&;

    const_iterator() = default;
    [[nodiscard]] reference operator*() const { return **it_; }
    [[nodiscard]] pointer operator->() const { return it_->get(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++it_;
      return tmp;
    }
    friend bool operator==(const const_iterator&, const const_iterator&) = default;

   private:
    friend class ProcessTable;
    using Inner = std::vector<std::shared_ptr<Process>>::const_iterator;
    explicit const_iterator(Inner it) : it_(it) {}
    Inner it_;
  };
  [[nodiscard]] const_iterator begin() const noexcept { return const_iterator(procs_.begin()); }
  [[nodiscard]] const_iterator end() const noexcept { return const_iterator(procs_.end()); }

 private:
  using Handle = std::shared_ptr<Process>;
  static Handle track(Process&& p);
  std::vector<Handle> procs_;
  support::DirtyIds dirty_;  // processes unsealed since the last seal()
};

class Configuration {
 public:
  Store store;
  ProcessTable processes;  // index = pid; entries are never erased
  /// Held locks: location (obj, off) -> owner pid. Shared until written.
  support::CowBox<std::map<std::pair<ObjId, std::uint32_t>, Pid>> lock_owners;
  /// Failed assertions (statement ids) observed on this path.
  support::CowBox<std::set<std::uint32_t>> violations;
  /// Runtime faults (statement id, kind) observed on this path.
  support::CowBox<std::set<std::pair<std::uint32_t, std::uint8_t>>> faults;

  /// Builds the initial configuration: globals frame (function cells bound
  /// to closures, initializers evaluated left to right) and a root process
  /// entering `main`.
  static Configuration initial(const LoweredProgram& program);

  [[nodiscard]] const LoweredProgram& program() const noexcept { return *program_; }

  [[nodiscard]] std::size_t num_live() const;
  /// True when no process is live (normal termination or all faulted).
  [[nodiscard]] bool all_done() const { return num_live() == 0; }

  /// Deterministic serialization of the canonical form; equal strings <=>
  /// equivalent configurations. See file header for what it includes.
  [[nodiscard]] std::string canonical_key() const;

  /// 128-bit fingerprint of the canonical form, folded from the cached
  /// process and object digests and the renumbered references (same
  /// traversal as canonical_key()). Equal keys => equal fingerprints; the
  /// converse fails only on a 2^-128-ish hash collision.
  [[nodiscard]] support::Fingerprint canonical_fingerprint() const;

  /// canonical_fingerprint() with every cached digest ignored and
  /// recomputed from the fields: the reference the staleness tests compare
  /// the cached path against.
  [[nodiscard]] support::Fingerprint recomputed_fingerprint() const;

  /// Computes the digests this configuration's mutations cleared (see the
  /// file header). apply_action() and initial() call it; the caller must
  /// own the configuration exclusively, as for any mutation.
  void seal() {
    store.seal();
    processes.seal();
  }

  /// Convenience for tests/benches: current value of global `name`.
  [[nodiscard]] std::optional<Value> global_value(std::string_view name) const;

  [[nodiscard]] std::string to_string() const;

 private:
  friend Configuration make_initial(const LoweredProgram&);
  const LoweredProgram* program_ = nullptr;
};

/// Which store objects are reachable from the globals frame and the live
/// processes (same traversal canonical_key uses; exposed for the lifetime
/// analyses). Indexed by ObjId.
[[nodiscard]] std::vector<bool> reachable_objects(const Configuration& cfg);

}  // namespace copar::sem
