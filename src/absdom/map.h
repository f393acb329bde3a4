// Pointwise map lattice: K -> V with absent keys meaning V::bottom().
// The abstract store is a MapLattice<AbsLoc, AbsValue>.
//
// Representation: a flat vector of (key, value) pairs sorted by key, with
// no bottom values. Lookups are binary searches; join, widen and leq are
// linear merges of two sorted runs. Copying a store is one allocation, and
// entries() iterates in key order exactly as an ordered map would.
//
// In-place update: join_with and widen_with grow a map without building a
// new one. One pass updates the bindings both sides hold, each in place and
// only where the delta's value is not below it; when the delta brings keys
// this map lacks, one merge into one new array of the final size adds
// them. The result is exactly join(delta), resp. widen(join(delta)).
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/absdom/lattice.h"

namespace copar::absdom {

template <typename K, JoinSemiLattice V>
class MapLattice {
 public:
  using Entries = std::vector<std::pair<K, V>>;

  static MapLattice bottom() { return MapLattice(); }

  [[nodiscard]] bool is_bottom() const { return map_.empty(); }
  /// The bindings in ascending key order.
  [[nodiscard]] const Entries& entries() const { return map_; }

  /// Value at `k` (bottom if absent).
  [[nodiscard]] V get(const K& k) const {
    auto it = lower(*this, k);
    return it != map_.end() && it->first == k ? it->second : V::bottom();
  }

  /// Weak update: join `v` into the binding of `k`. Returns true if grew.
  bool join_at(const K& k, const V& v) {
    if (v.is_bottom()) return false;
    auto it = lower(*this, k);
    if (it == map_.end() || it->first != k) {
      map_.emplace(it, k, v);
      return true;
    }
    return join_into(it->second, v);
  }

  /// Strong update: replace the binding of `k`.
  void set(const K& k, V v) {
    auto it = lower(*this, k);
    const bool found = it != map_.end() && it->first == k;
    if (v.is_bottom()) {
      if (found) map_.erase(it);
    } else if (found) {
      it->second = std::move(v);
    } else {
      map_.emplace(it, k, std::move(v));
    }
  }

  [[nodiscard]] MapLattice join(const MapLattice& o) const {
    MapLattice out = *this;
    (void)out.join_with(o);
    return out;
  }

  /// Pointwise widening (requires V widenable): the bindings of `next`,
  /// each widened by this map's binding of the same key when there is one.
  [[nodiscard]] MapLattice widen(const MapLattice& next) const
    requires WidenableLattice<V>
  {
    MapLattice out = next;
    auto a = map_.begin();
    for (auto& [k, v] : out.map_) {
      while (a != map_.end() && a->first < k) ++a;
      if (a != map_.end() && a->first == k) v = a->second.widen(v);
    }
    return out;
  }

  /// In-place join: this map becomes join(delta). Returns true if it grew.
  bool join_with(const MapLattice& delta) {
    return merge_in(delta, [](V& v, const V& d) { return join_into(v, d); });
  }

  /// In-place widening: this map becomes widen(join(delta)) when delta is
  /// not below it. Returns true if it grew (exactly when !delta.leq(*this)).
  bool widen_with(const MapLattice& delta)
    requires WidenableLattice<V>
  {
    return merge_in(delta, [](V& v, const V& d) { return widen_into(v, d); });
  }

  [[nodiscard]] bool leq(const MapLattice& o) const {
    auto b = o.map_.begin();
    for (const auto& [k, v] : map_) {
      while (b != o.map_.end() && b->first < k) ++b;
      if (b != o.map_.end() && b->first == k) {
        if (!v.leq(b->second)) return false;
      } else if (!v.is_bottom()) {
        return false;
      }
    }
    return true;
  }

  friend bool operator==(const MapLattice&, const MapLattice&) = default;

  /// Heap bytes held by the bindings array (its capacity, not its size).
  [[nodiscard]] std::size_t capacity_bytes() const {
    return map_.capacity() * sizeof(typename Entries::value_type);
  }

  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    for (const auto& [k, v] : map_) {
      if constexpr (requires { k.to_string(); }) {
        os << k.to_string();
      } else {
        os << k;
      }
      os << " -> " << v.to_string() << '\n';
    }
    return os.str();
  }

 private:
  /// First binding whose key is not below `k` (const or mutable).
  template <typename Self>
  [[nodiscard]] static auto lower(Self& self, const K& k) {
    return std::lower_bound(self.map_.begin(), self.map_.end(), k,
                            [](const auto& e, const K& key) { return e.first < key; });
  }

  /// Grows this map by `delta` in place: `grow(v, d)` updates a binding
  /// both sides hold and returns true if it grew; a key only `delta` holds
  /// takes its delta value. New keys arrive in one merge into one array of
  /// the final size. Returns true if anything grew.
  template <typename Grow>
  bool merge_in(const MapLattice& delta, Grow&& grow) {
    bool grew = false;
    std::size_t fresh = 0;
    auto a = map_.begin();
    for (const auto& [k, d] : delta.map_) {
      if (d.is_bottom()) continue;
      while (a != map_.end() && a->first < k) ++a;
      if (a != map_.end() && a->first == k) {
        if (grow(a->second, d)) grew = true;
        ++a;
      } else {
        ++fresh;
      }
    }
    if (fresh == 0) return grew;
    Entries out;
    out.reserve(map_.size() + fresh);
    a = map_.begin();
    for (const auto& e : delta.map_) {
      if (e.second.is_bottom()) continue;
      while (a != map_.end() && a->first < e.first) out.push_back(std::move(*a++));
      if (a != map_.end() && a->first == e.first) {
        out.push_back(std::move(*a++));  // already grown above
      } else {
        out.push_back(e);
      }
    }
    while (a != map_.end()) out.push_back(std::move(*a++));
    map_ = std::move(out);
    return true;
  }

  Entries map_;
};

}  // namespace copar::absdom
