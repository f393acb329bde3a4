// Lattice concepts for the abstract-interpretation framework (§3/§4).
//
// Every abstract domain used by the abstract semantics models a join
// semilattice with bottom: `bottom()` is the least element, `join` the least
// upper bound, `leq` the partial order. Domains with infinite ascending
// chains (intervals) additionally provide `widen`.
//
// The paper's framework treats the choice of abstract domain as the design
// axis: "any abstraction of the semantic domains automatically suggests a
// different folding mechanism". The domains in this directory are the value
// lattices; the folding mechanisms (Taylor, McDowell) live in src/absem.
#pragma once

#include <concepts>

namespace copar::absdom {

template <typename D>
concept JoinSemiLattice = requires(const D a, const D b) {
  { D::bottom() } -> std::same_as<D>;
  { a.is_bottom() } -> std::same_as<bool>;
  { a.join(b) } -> std::same_as<D>;
  { a.leq(b) } -> std::same_as<bool>;
  { a == b } -> std::convertible_to<bool>;
};

template <typename D>
concept WidenableLattice = JoinSemiLattice<D> && requires(const D a, const D b) {
  { a.widen(b) } -> std::same_as<D>;
};

/// Joins `delta` into `acc`; returns true if `acc` grew. The idiom of every
/// fixpoint loop in the framework. A domain with a member
/// `join_with(delta)` (same result, same flag) grows in place through it.
template <JoinSemiLattice D>
bool join_into(D& acc, const D& delta) {
  if constexpr (requires { { acc.join_with(delta) } -> std::same_as<bool>; }) {
    return acc.join_with(delta);
  } else {
    if (delta.leq(acc)) return false;
    acc = acc.join(delta);
    return true;
  }
}

/// Widening-accelerated variant for domains with infinite chains:
/// `acc` becomes acc.widen(acc.join(delta)) when delta ⋢ acc. A domain with
/// a member `widen_with(delta)` (same result, same flag) grows in place
/// through it.
template <WidenableLattice D>
bool widen_into(D& acc, const D& delta) {
  if constexpr (requires { { acc.widen_with(delta) } -> std::same_as<bool>; }) {
    return acc.widen_with(delta);
  } else {
    if (delta.leq(acc)) return false;
    acc = acc.widen(acc.join(delta));
    return true;
  }
}

}  // namespace copar::absdom
