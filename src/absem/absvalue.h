// Abstract values: the product of a numeric lattice (pluggable: flat
// constants, intervals, signs), a may-be-null flag, a points-to set, and a
// closure set. The non-standard semantics of §4 computes with these.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>

#include "src/absdom/cmpop.h"
#include "src/absdom/lattice.h"
#include "src/absdom/powerset.h"
#include "src/absem/absloc.h"

namespace copar::absem {

/// What the abstract semantics requires of its numeric component.
template <typename N>
concept NumDomain = absdom::WidenableLattice<N> &&
    requires(const N a, const N b, bool (*pred)(std::int64_t, std::int64_t)) {
      { N::constant(std::int64_t{0}) } -> std::same_as<N>;
      { N::top() } -> std::same_as<N>;
      { N::add(a, b) } -> std::same_as<N>;
      { N::sub(a, b) } -> std::same_as<N>;
      { N::mul(a, b) } -> std::same_as<N>;
      { N::div(a, b) } -> std::same_as<N>;
      { N::mod(a, b) } -> std::same_as<N>;
      { N::cmp(a, b, pred) } -> std::same_as<N>;
      { N::refine_cmp(a, absdom::CmpOp::Lt, b, true) } -> std::same_as<N>;
      { a.may_be_truthy() } -> std::same_as<bool>;
      { a.may_be_falsy() } -> std::same_as<bool>;
    };

template <NumDomain N>
struct AbsValue {
  N num = N::bottom();
  bool may_null = false;
  absdom::PowerSet<AbsLoc> ptrs;
  absdom::PowerSet<std::uint32_t> fns;  // lowered proc ids

  static AbsValue bottom() { return AbsValue{}; }
  static AbsValue of_int(std::int64_t v) {
    AbsValue out;
    out.num = N::constant(v);
    return out;
  }
  static AbsValue of_null() {
    AbsValue out;
    out.may_null = true;
    return out;
  }
  static AbsValue of_ptr(AbsLoc loc) {
    AbsValue out;
    out.ptrs.insert(loc);
    return out;
  }
  static AbsValue of_fn(std::uint32_t proc) {
    AbsValue out;
    out.fns.insert(proc);
    return out;
  }
  static AbsValue of_num(N n) {
    AbsValue out;
    out.num = std::move(n);
    return out;
  }

  [[nodiscard]] bool is_bottom() const {
    return num.is_bottom() && !may_null && ptrs.is_bottom() && fns.is_bottom();
  }

  [[nodiscard]] AbsValue join(const AbsValue& o) const {
    AbsValue out;
    out.num = num.join(o.num);
    out.may_null = may_null || o.may_null;
    out.ptrs = ptrs.join(o.ptrs);
    out.fns = fns.join(o.fns);
    return out;
  }
  [[nodiscard]] AbsValue widen(const AbsValue& o) const {
    AbsValue out;
    out.num = num.widen(o.num);
    out.may_null = may_null || o.may_null;
    out.ptrs = ptrs.join(o.ptrs);
    out.fns = fns.join(o.fns);
    return out;
  }
  /// In-place join: this value becomes join(o). Returns true if it grew.
  /// Allocates only when o's points-to or closure set brings new elements.
  bool join_with(const AbsValue& o) {
    return grow_with(o, [](N& a, const N& b) { return absdom::join_into(a, b); });
  }
  /// In-place widening: this value becomes widen(join(o)) when o is not
  /// below it. Returns true if it grew (exactly when !o.leq(*this)).
  bool widen_with(const AbsValue& o) {
    return grow_with(o, [](N& a, const N& b) { return absdom::widen_into(a, b); });
  }
  /// Narrowing (widened.narrow(next) with next ⊑ widened): refine the
  /// numeric component when the domain supports it; the finite-height
  /// components keep the widened (= joined) value.
  [[nodiscard]] AbsValue narrow(const AbsValue& o) const {
    AbsValue out = *this;
    if constexpr (requires(const N a, const N b) {
                    { a.narrow(b) } -> std::same_as<N>;
                  }) {
      out.num = num.narrow(o.num);
    }
    return out;
  }
  [[nodiscard]] bool leq(const AbsValue& o) const {
    return num.leq(o.num) && (!may_null || o.may_null) && ptrs.leq(o.ptrs) && fns.leq(o.fns);
  }
  friend bool operator==(const AbsValue&, const AbsValue&) = default;

  [[nodiscard]] bool may_be_truthy() const {
    return num.may_be_truthy() || !ptrs.is_bottom() || !fns.is_bottom();
  }
  [[nodiscard]] bool may_be_falsy() const { return num.may_be_falsy() || may_null; }

  [[nodiscard]] std::string to_string() const {
    std::string out = num.to_string();
    if (may_null) out += "|null";
    if (!ptrs.is_bottom()) out += "|" + ptrs.to_string();
    if (!fns.is_bottom()) out += "|fns" + fns.to_string();
    return out;
  }

 private:
  /// Grows each component by o's: the numeric one through `grow_num`
  /// (join_into or widen_into), the finite-height ones by join.
  template <typename GrowNum>
  bool grow_with(const AbsValue& o, GrowNum&& grow_num) {
    bool grew = grow_num(num, o.num);
    if (o.may_null && !may_null) {
      may_null = true;
      grew = true;
    }
    if (ptrs.join_with(o.ptrs)) grew = true;
    if (fns.join_with(o.fns)) grew = true;
    return grew;
  }
};

}  // namespace copar::absem
