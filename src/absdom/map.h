// Pointwise map lattice: K -> V with absent keys meaning V::bottom().
// The abstract store is a MapLattice<AbsLoc, AbsValue>.
//
// Representation: a flat vector of (key, value) pairs sorted by key, with
// no bottom values. Lookups are binary searches; join, widen and leq are
// linear merges of two sorted runs. Copying a store is one allocation, and
// entries() iterates in key order exactly as an ordered map would.
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
    if (v == V::bottom()) return false;
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
    if (v == V::bottom()) {
      if (found) map_.erase(it);
    } else if (found) {
      it->second = std::move(v);
    } else {
      map_.emplace(it, k, std::move(v));
    }
  }

  [[nodiscard]] MapLattice join(const MapLattice& o) const {
    MapLattice out;
    out.map_.reserve(map_.size() + o.map_.size());
    auto a = map_.begin();
    auto b = o.map_.begin();
    while (a != map_.end() || b != o.map_.end()) {
      if (b == o.map_.end() || (a != map_.end() && a->first < b->first)) {
        out.map_.push_back(*a++);
      } else if (a == map_.end() || b->first < a->first) {
        if (!(b->second == V::bottom())) out.map_.push_back(*b);
        ++b;
      } else {
        out.map_.push_back(*a++);
        if (!(b->second == V::bottom())) (void)join_into(out.map_.back().second, b->second);
        ++b;
      }
    }
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

  [[nodiscard]] bool leq(const MapLattice& o) const {
    auto b = o.map_.begin();
    for (const auto& [k, v] : map_) {
      while (b != o.map_.end() && b->first < k) ++b;
      if (!v.leq(b != o.map_.end() && b->first == k ? b->second : V::bottom())) return false;
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

  Entries map_;
};

}  // namespace copar::absdom
