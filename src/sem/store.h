// The shared store of the standard semantics.
//
// Every variable and heap cell lives in the store: the globals live in a
// distinguished frame object, each function activation allocates a frame
// object (cell 0 = static link for closures, cells 1.. = parameter/local
// slots), and `alloc(n)` creates an n-cell heap object. A *location* is an
// (object, cell) pair; locations have dense ids (object base + offset) so
// read/write sets are bitsets.
//
// Per the instrumented semantics (§5), every object records its allocation
// site, creating process, and *birthdate* procedure string.
//
// Representation: objects are held by refcounted handles, so copying a
// Store copies one handle per object, not the cells. All mutation goes
// through the COW seam `mutate(id)`, which clones an object only on the
// first write after a share (see docs/STATE_REPRESENTATION.md for the
// ownership discipline that makes the refcount test sound in the parallel
// engine). Each object also caches its canonical digest (object_digest);
// mutate() and allocate() clear it and note the object as dirty, and the
// owner recomputes the dirty digests with seal() before it shares the
// store.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sem/procstring.h"
#include "src/sem/value.h"
#include "src/support/cow.h"
#include "src/support/diagnostics.h"
#include "src/support/fingerprint.h"

namespace copar::sem {

/// What kind of storage an object provides; affects sharedness/criticality
/// classification and the analyses.
enum class ObjKind : std::uint8_t { Globals, Frame, Heap };

struct Object {
  ObjKind obj_kind = ObjKind::Heap;
  /// AllocStmt id for heap objects; lowered proc id for frames; 0 for globals.
  std::uint32_t site = 0;
  /// Creating process id (transient; canonicalization ignores it) — used by
  /// the access-log analyses.
  std::uint32_t creator = 0;
  /// Birthdate: the creator's procedure string at allocation time.
  ProcString birth;
  /// First dense location id of cell 0 within the owning Store.
  std::uint32_t base = 0;
  std::vector<Value> cells;
  /// Cached object_digest(*this); valid iff `sealed`. Written only by the
  /// store that owns the object exclusively (Store::seal).
  support::Fingerprint digest;
  bool has_refs = false;
  bool sealed = false;
};

/// The canonical digest of an object: a hash of everything renumbering
/// leaves alone — kind, site, birthdate, and every cell, where a reference
/// (a pointer, or a closure with an environment) contributes its kind and
/// offset but not its target object. `has_refs` says whether any cell is a
/// reference; the canonical walk then adds the renumbered targets, in cell
/// order, after the digest. A closure with no environment is plain data:
/// the globals frame holds every named function that way.
struct ObjectDigest {
  support::Fingerprint digest;
  bool has_refs = false;
};
[[nodiscard]] ObjectDigest object_digest(const Object& o) noexcept;

/// The digest of a procedure string (length, then each symbol) into `h` —
/// shared by object birthdates and process strings.
void hash_pstring(support::ConfigHasher& h, const ProcString& s) noexcept;

/// Deep size of an object (the handle accounting unit for the
/// frontier-bytes gauge). Cells never grow after allocation, so this is
/// stable over the object's lifetime.
[[nodiscard]] std::size_t object_bytes(const Object& o) noexcept;

class Store {
 public:
  /// Creates `ncells` zero-initialized cells; returns the new object's id.
  ObjId allocate(ObjKind kind, std::uint32_t site, std::uint32_t creator, ProcString birth,
                 std::uint32_t ncells);

  [[nodiscard]] const Object& object(ObjId id) const;
  /// The COW seam: mutable access to an object, cloning it first iff its
  /// handle is shared with another Store. Callers must hold exclusive
  /// ownership of this *Store* (one worker, one configuration). Clears the
  /// object's cached digest and notes it for seal().
  [[nodiscard]] Object& mutate(ObjId id);
  /// Recomputes the cached digest of every object mutated or allocated
  /// since the last seal whose handle this store owns alone; a shared one
  /// is left unsealed (the canonical walk computes its digest on the fly).
  /// Same ownership contract as mutate().
  void seal();
  [[nodiscard]] std::size_t num_objects() const noexcept { return objects_.size(); }
  /// One past the largest dense location id.
  [[nodiscard]] std::size_t num_locations() const noexcept { return next_base_; }

  /// Reads/writes with bounds checking; offset past the object's cells is a
  /// runtime error reported via copar::Error (the stepper catches it).
  [[nodiscard]] Value read(ObjId obj, std::uint32_t off) const;
  void write(ObjId obj, std::uint32_t off, Value v);
  [[nodiscard]] bool in_bounds(ObjId obj, std::uint32_t off) const noexcept;

  /// Dense location id of (obj, off) for read/write bitsets.
  [[nodiscard]] std::size_t loc_id(ObjId obj, std::uint32_t off) const;

  /// Inverse of loc_id: which (object, offset) a dense location id names.
  [[nodiscard]] std::pair<ObjId, std::uint32_t> locate(std::size_t loc) const;

  [[nodiscard]] std::string to_string() const;

 private:
  /// Shared immutable handle. The pointee is only written through mutate()
  /// while its refcount is exactly 1, so sharing handles across
  /// configurations (and worker threads) is safe.
  using Handle = std::shared_ptr<Object>;
  static Handle track(Object&& o);

  std::vector<Handle> objects_;
  support::DirtyIds dirty_;  // objects unsealed since the last seal()
  std::uint32_t next_base_ = 0;
};

}  // namespace copar::sem
