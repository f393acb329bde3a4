#include "src/sem/store.h"

#include <sstream>

#include "src/sem/cowstats.h"

namespace copar::sem {

std::size_t object_bytes(const Object& o) noexcept {
  return sizeof(Object) + o.cells.capacity() * sizeof(Value) +
         o.birth.syms().capacity() * sizeof(PSym);
}

Store::Handle Store::track(Object&& o) {
  const std::size_t n = object_bytes(o);
  cowstats::add_live_bytes(n);
  return Handle(new Object(std::move(o)),
                [n](Object* p) noexcept {
                  cowstats::sub_live_bytes(n);
                  delete p;
                });
}

ObjId Store::allocate(ObjKind kind, std::uint32_t site, std::uint32_t creator, ProcString birth,
                      std::uint32_t ncells) {
  Object obj;
  obj.obj_kind = kind;
  obj.site = site;
  obj.creator = creator;
  obj.birth = std::move(birth);
  obj.base = next_base_;
  obj.cells.assign(ncells, Value::integer(0));
  next_base_ += ncells;
  objects_.push_back(track(std::move(obj)));
  const auto id = static_cast<ObjId>(objects_.size() - 1);
  dirty_.add(id);
  return id;
}

const Object& Store::object(ObjId id) const {
  require(id < objects_.size(), "Store::object: bad object id");
  return *objects_[id];
}

Object& Store::mutate(ObjId id) {
  require(id < objects_.size(), "Store::mutate: bad object id");
  Handle& h = objects_[id];
  if (h.use_count() != 1) {
    // Shared with another configuration: clone before writing. A count that
    // is stale (another owner dropping concurrently) only causes a spare
    // clone, never a write to shared structure.
    h = track(Object(*h));
    cowstats::note_object_copied();
  } else {
    cowstats::note_object_shared();
  }
  if (h->sealed) {
    h->sealed = false;
    dirty_.add(id);
  }
  return *h;
}

void Store::seal() {
  dirty_.drain(static_cast<std::uint32_t>(objects_.size()), [&](ObjId id) {
    Handle& h = objects_[id];
    if (h.use_count() != 1 || h->sealed) return;
    const ObjectDigest d = object_digest(*h);
    h->digest = d.digest;
    h->has_refs = d.has_refs;
    h->sealed = true;
  });
}

void hash_pstring(support::ConfigHasher& h, const ProcString& s) noexcept {
  h.word(s.size());
  for (const PSym& sym : s.syms()) {
    // Call/Ret symbols carry branch 0; a nonzero branch takes a second word,
    // flagged in the first so the encoding stays unambiguous.
    const bool branch = sym.branch != 0;
    h.word(sym.id | (static_cast<std::uint64_t>(sym.kind) << 32) |
           (static_cast<std::uint64_t>(branch) << 34));
    if (branch) h.word(sym.branch);
  }
}

ObjectDigest object_digest(const Object& o) noexcept {
  constexpr std::uint64_t kObjectDomain = 0x6f626a656374ULL;  // "object"
  support::ConfigHasher h(kObjectDomain);
  ObjectDigest d;
  h.pair(static_cast<std::uint32_t>(o.obj_kind), o.site);
  hash_pstring(h, o.birth);
  h.word(o.cells.size());
  // One payload word per cell; the cell kinds, two bits each, follow every
  // 32 cells (and the last partial group) in a word of their own.
  std::uint64_t kinds = 0;
  std::size_t i = 0;
  for (const Value& v : o.cells) {
    std::uint64_t payload = 0;
    switch (v.kind()) {
      case VKind::Int:
        payload = static_cast<std::uint64_t>(v.as_int());
        break;
      case VKind::Null:
        break;
      case VKind::Ptr:
        payload = v.ptr_off();
        d.has_refs = true;
        break;
      case VKind::Closure: {
        const bool env = v.closure_env() != kNoObj;
        payload = v.closure_proc() | (static_cast<std::uint64_t>(env) << 32);
        d.has_refs |= env;
        break;
      }
    }
    h.word(payload);
    kinds |= static_cast<std::uint64_t>(v.kind()) << (2 * (i % 32));
    if (++i % 32 == 0) {
      h.word(kinds);
      kinds = 0;
    }
  }
  if (i % 32 != 0) h.word(kinds);
  d.digest = h.finalize();
  return d;
}

bool Store::in_bounds(ObjId obj, std::uint32_t off) const noexcept {
  return obj < objects_.size() && off < objects_[obj]->cells.size();
}

Value Store::read(ObjId obj, std::uint32_t off) const {
  require(in_bounds(obj, off), "store read out of bounds");
  return objects_[obj]->cells[off];
}

void Store::write(ObjId obj, std::uint32_t off, Value v) {
  require(in_bounds(obj, off), "store write out of bounds");
  mutate(obj).cells[off] = v;
}

std::size_t Store::loc_id(ObjId obj, std::uint32_t off) const {
  require(in_bounds(obj, off), "loc_id out of bounds");
  return objects_[obj]->base + off;
}

std::pair<ObjId, std::uint32_t> Store::locate(std::size_t loc) const {
  // Bases are strictly increasing; binary-search the owning object.
  require(loc < next_base_, "locate: bad location id");
  std::size_t lo = 0;
  std::size_t hi = objects_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (objects_[mid]->base <= loc) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Zero-cell objects share their base with the next object; skip backwards
  // never needed because such objects own no locations.
  const std::uint32_t off = static_cast<std::uint32_t>(loc - objects_[lo]->base);
  require(off < objects_[lo]->cells.size(), "locate: location in zero-cell gap");
  return {static_cast<ObjId>(lo), off};
}

std::string Store::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    const Object& o = *objects_[i];
    os << "obj" << i << "(";
    switch (o.obj_kind) {
      case ObjKind::Globals: os << "globals"; break;
      case ObjKind::Frame: os << "frame p" << o.site; break;
      case ObjKind::Heap: os << "heap s" << o.site; break;
    }
    os << ") = [";
    for (std::size_t c = 0; c < o.cells.size(); ++c) {
      if (c > 0) os << ", ";
      os << o.cells[c].to_string();
    }
    os << "]\n";
  }
  return os.str();
}

}  // namespace copar::sem
