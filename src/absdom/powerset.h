// Finite powerset lattice: sets of T ordered by inclusion. Used for
// points-to sets (abstract locations), callee sets (abstract closures), and
// generally wherever the abstract semantics collects "may" facts.
//
// Representation: a flat vector of elements sorted ascending, with no
// duplicates. contains and insert are binary searches; join, meet and leq
// are linear merges of two sorted runs; elems() iterates in ascending order
// exactly as an ordered set would. An empty set (bottom, the common case in
// an abstract value) holds no heap memory, and copying a set is at most one
// allocation. join_with grows a set in place: it allocates only when the
// other set brings elements this one lacks.
#pragma once

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace copar::absdom {

template <typename T>
class PowerSet {
 public:
  using Elems = std::vector<T>;

  PowerSet() = default;
  explicit PowerSet(const std::set<T>& elems) : elems_(elems.begin(), elems.end()) {}

  static PowerSet bottom() { return PowerSet(); }
  static PowerSet singleton(T v) {
    PowerSet p;
    p.elems_.push_back(std::move(v));
    return p;
  }

  [[nodiscard]] bool is_bottom() const { return elems_.empty(); }
  /// The elements in ascending order.
  [[nodiscard]] const Elems& elems() const { return elems_; }
  [[nodiscard]] std::size_t size() const { return elems_.size(); }
  [[nodiscard]] bool contains(const T& v) const {
    return std::binary_search(elems_.begin(), elems_.end(), v);
  }

  [[nodiscard]] PowerSet join(const PowerSet& o) const {
    if (o.elems_.empty()) return *this;
    if (elems_.empty()) return o;
    PowerSet out;
    out.elems_.reserve(elems_.size() + o.elems_.size());
    std::set_union(elems_.begin(), elems_.end(), o.elems_.begin(), o.elems_.end(),
                   std::back_inserter(out.elems_));
    return out;
  }
  [[nodiscard]] PowerSet widen(const PowerSet& o) const { return join(o); }
  [[nodiscard]] bool leq(const PowerSet& o) const {
    return std::includes(o.elems_.begin(), o.elems_.end(), elems_.begin(), elems_.end());
  }
  [[nodiscard]] PowerSet meet(const PowerSet& o) const {
    PowerSet out;
    std::set_intersection(elems_.begin(), elems_.end(), o.elems_.begin(), o.elems_.end(),
                          std::back_inserter(out.elems_));
    return out;
  }

  /// In-place join: this set becomes join(o). Returns true if it grew.
  bool join_with(const PowerSet& o) {
    if (o.leq(*this)) return false;
    *this = join(o);
    return true;
  }

  void insert(T v) {
    const auto it = std::lower_bound(elems_.begin(), elems_.end(), v);
    if (it == elems_.end() || v < *it) elems_.insert(it, std::move(v));
  }

  friend bool operator==(const PowerSet&, const PowerSet&) = default;

  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const T& e : elems_) {
      if (!first) os << ',';
      first = false;
      if constexpr (requires { e.to_string(); }) {
        os << e.to_string();
      } else {
        os << e;
      }
    }
    os << '}';
    return os.str();
  }

 private:
  Elems elems_;
};

}  // namespace copar::absdom
