// Differential oracle for the flat MapLattice: a straight std::map
// formulation of the pointwise map lattice (the representation the flat
// sorted vector replaced) must agree with it on every result — get,
// join_at's growth flag, set, join, widen, leq, == and the key order of
// entries() — over seeded random operation sequences, for plain interval
// maps and for abstract stores whose values carry points-to and closure
// sets.
//
// The in-place updates get an oracle of their own: over random pairs of
// abstract stores (interval and flat-constant values) and of abstract
// values, join_into and widen_into must give the flag !delta.leq(acc) and
// exactly acc.join(delta), resp. acc.widen(acc.join(delta)), computed here
// from the value-returning join and widen; and the copy-on-write overload
// must never mutate a payload another handle shares.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "src/absdom/flat.h"
#include "src/absdom/interval.h"
#include "src/absdom/map.h"
#include "src/absem/abseval.h"

namespace copar::absdom {
namespace {

// ---- The reference: the ordered-map formulation ---------------------------

template <typename K, JoinSemiLattice V>
class RefMapLattice {
 public:
  [[nodiscard]] const std::map<K, V>& entries() const { return map_; }

  [[nodiscard]] V get(const K& k) const {
    auto it = map_.find(k);
    return it == map_.end() ? V::bottom() : it->second;
  }

  bool join_at(const K& k, const V& v) {
    if (v == V::bottom()) return false;
    auto [it, inserted] = map_.emplace(k, v);
    if (inserted) return true;
    return join_into(it->second, v);
  }

  void set(const K& k, V v) {
    if (v == V::bottom()) {
      map_.erase(k);
    } else {
      map_.insert_or_assign(k, std::move(v));
    }
  }

  [[nodiscard]] RefMapLattice join(const RefMapLattice& o) const {
    RefMapLattice out = *this;
    for (const auto& [k, v] : o.map_) out.join_at(k, v);
    return out;
  }

  [[nodiscard]] RefMapLattice widen(const RefMapLattice& next) const {
    RefMapLattice out = next;
    for (auto& [k, v] : out.map_) {
      auto it = map_.find(k);
      if (it != map_.end()) v = it->second.widen(v);
    }
    return out;
  }

  [[nodiscard]] bool leq(const RefMapLattice& o) const {
    for (const auto& [k, v] : map_) {
      if (!v.leq(o.get(k))) return false;
    }
    return true;
  }

  friend bool operator==(const RefMapLattice&, const RefMapLattice&) = default;

 private:
  std::map<K, V> map_;
};

// ---- Random keys and values ------------------------------------------------

using Rng = std::mt19937_64;

std::size_t pick(Rng& rng, std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

Interval random_interval(Rng& rng) {
  switch (pick(rng, 6)) {
    case 0: return Interval::bottom();
    case 1: return Interval::top();
    case 2: return Interval::range(Interval::kNegInf, static_cast<std::int64_t>(pick(rng, 5)));
    default: {
      const auto lo = static_cast<std::int64_t>(pick(rng, 9)) - 4;
      return Interval::range(lo, lo + static_cast<std::int64_t>(pick(rng, 4)));
    }
  }
}

int random_key(Rng& rng, int*) { return static_cast<int>(pick(rng, 12)); }
Interval random_value(Rng& rng, Interval*) { return random_interval(rng); }

absem::AbsLoc random_key(Rng& rng, absem::AbsLoc*) {
  const auto a = static_cast<std::uint32_t>(pick(rng, 3));
  switch (pick(rng, 3)) {
    case 0: return absem::AbsLoc::global(a);
    case 1:
      return absem::AbsLoc::frame(a, static_cast<std::uint32_t>(pick(rng, 3)),
                                  static_cast<std::uint32_t>(pick(rng, 2)));
    default: return absem::AbsLoc::heap(a);
  }
}

Interval random_num(Rng& rng, Interval*) { return random_interval(rng); }

FlatInt random_num(Rng& rng, FlatInt*) {
  switch (pick(rng, 5)) {
    case 0: return FlatInt::bottom();
    case 1: return FlatInt::top();
    default: return FlatInt::constant(static_cast<std::int64_t>(pick(rng, 3)));
  }
}

template <absem::NumDomain N>
absem::AbsValue<N> random_value(Rng& rng, absem::AbsValue<N>*) {
  absem::AbsValue<N> v;
  if (pick(rng, 4) == 0) return v;  // bottom
  v.num = random_num(rng, static_cast<N*>(nullptr));
  v.may_null = pick(rng, 4) == 0;
  for (std::size_t n = pick(rng, 3); n > 0; --n) {
    v.ptrs.insert(random_key(rng, static_cast<absem::AbsLoc*>(nullptr)));
  }
  for (std::size_t n = pick(rng, 3); n > 0; --n) {
    v.fns.insert(static_cast<std::uint32_t>(pick(rng, 4)));
  }
  return v;
}

// ---- The differential driver ----------------------------------------------

template <typename K, typename V>
::testing::AssertionResult same(const RefMapLattice<K, V>& ref, const MapLattice<K, V>& flat) {
  if (ref.entries().size() != flat.entries().size()) {
    return ::testing::AssertionFailure()
           << "sizes " << ref.entries().size() << " vs " << flat.entries().size();
  }
  auto r = ref.entries().begin();
  for (const auto& [k, v] : flat.entries()) {
    if (!(r->first == k) || !(r->second == v)) {
      return ::testing::AssertionFailure() << "bindings differ at " << flat.to_string();
    }
    ++r;
  }
  return ::testing::AssertionSuccess();
}

/// Runs `steps` random operations over four map pairs (reference, flat)
/// kept in lockstep; every result and every map must agree.
template <typename K, typename V>
void run_oracle(std::uint64_t seed, int steps) {
  Rng rng(seed);
  constexpr std::size_t kMaps = 4;
  std::vector<RefMapLattice<K, V>> ref(kMaps);
  std::vector<MapLattice<K, V>> flat(kMaps);
  auto key = [&] { return random_key(rng, static_cast<K*>(nullptr)); };
  auto value = [&] { return random_value(rng, static_cast<V*>(nullptr)); };
  for (int step = 0; step < steps; ++step) {
    const std::size_t i = pick(rng, kMaps);
    const std::size_t j = pick(rng, kMaps);
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    switch (pick(rng, 8)) {
      case 0:
      case 1: {
        const K k = key();
        const V v = value();
        ASSERT_EQ(ref[i].join_at(k, v), flat[i].join_at(k, v));
        break;
      }
      case 2: {
        const K k = key();
        const V v = value();
        ref[i].set(k, v);
        flat[i].set(k, v);
        break;
      }
      case 3: {
        const K k = key();
        ASSERT_TRUE(ref[i].get(k) == flat[i].get(k));
        break;
      }
      case 4: {
        const auto r = ref[i].join(ref[j]);
        const auto f = flat[i].join(flat[j]);
        ASSERT_TRUE(same(r, f));
        if (pick(rng, 2) == 0) {
          ref[i] = r;
          flat[i] = f;
        }
        break;
      }
      case 5: {
        const auto r = ref[i].widen(ref[i].join(ref[j]));
        const auto f = flat[i].widen(flat[i].join(flat[j]));
        ASSERT_TRUE(same(r, f));
        ASSERT_TRUE(same(ref[j].widen(ref[i]), flat[j].widen(flat[i])));
        if (pick(rng, 2) == 0) {
          ref[i] = r;
          flat[i] = f;
        }
        break;
      }
      case 6:
        ASSERT_EQ(ref[i].leq(ref[j]), flat[i].leq(flat[j]));
        ASSERT_EQ(ref[j].leq(ref[i]), flat[j].leq(flat[i]));
        break;
      default:
        ASSERT_EQ(ref[i] == ref[j], flat[i] == flat[j]);
        break;
    }
    ASSERT_TRUE(same(ref[i], flat[i]));
  }
  for (std::size_t i = 0; i < kMaps; ++i) ASSERT_TRUE(same(ref[i], flat[i]));
}

TEST(MapLatticeOracle, IntervalMapsMatchOrderedMap) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_oracle<int, Interval>(seed, 300);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MapLatticeOracle, AbstractStoresMatchOrderedMap) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_oracle<absem::AbsLoc, absem::AbsValue<Interval>>(seed, 300);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// leq compares a binding absent from the other side against bottom: a
/// map with a key the other lacks is not below it.
TEST(MapLatticeOracle, LeqSeesKeysAbsentFromTheOtherSide) {
  MapLattice<int, Interval> small;
  small.join_at(1, Interval::constant(3));
  MapLattice<int, Interval> big = small;
  big.join_at(2, Interval::constant(0));
  EXPECT_TRUE(small.leq(big));
  EXPECT_FALSE(big.leq(small));
}

// ---- In-place join and widening -------------------------------------------

/// acc.join(delta) as an ordered map, from the value-returning join only.
template <typename K, typename V>
std::map<K, V> ref_join(const MapLattice<K, V>& acc, const MapLattice<K, V>& delta) {
  std::map<K, V> out(acc.entries().begin(), acc.entries().end());
  for (const auto& [k, d] : delta.entries()) {
    if (d.is_bottom()) continue;
    auto [it, fresh] = out.emplace(k, d);
    if (!fresh) it->second = it->second.join(d);
  }
  return out;
}

/// acc.widen(acc.join(delta)) as an ordered map, from the value-returning
/// join and widen only.
template <typename K, typename V>
std::map<K, V> ref_widen_of_join(const MapLattice<K, V>& acc, const MapLattice<K, V>& delta) {
  std::map<K, V> out = ref_join(acc, delta);
  for (const auto& [k, a] : acc.entries()) out.at(k) = a.widen(out.at(k));
  return out;
}

/// delta ⊑ acc, binding by binding.
template <typename K, typename V>
bool ref_leq(const MapLattice<K, V>& delta, const MapLattice<K, V>& acc) {
  return std::all_of(delta.entries().begin(), delta.entries().end(),
                     [&](const auto& e) { return e.second.leq(acc.get(e.first)); });
}

template <typename K, typename V>
bool same_map(const std::map<K, V>& ref, const MapLattice<K, V>& flat) {
  return std::equal(ref.begin(), ref.end(), flat.entries().begin(), flat.entries().end(),
                    [](const auto& r, const auto& f) {
                      return r.first == f.first && r.second == f.second;
                    });
}

/// A random map of up to 8 bindings. Bottom values are drawn too; set and
/// join_at drop them (a map holds no bottom binding), so they act as keys
/// the map lacks, and a bottom set() erases a key.
template <typename K, typename V>
MapLattice<K, V> random_map(Rng& rng) {
  MapLattice<K, V> m;
  for (std::size_t n = pick(rng, 9); n > 0; --n) {
    const K k = random_key(rng, static_cast<K*>(nullptr));
    const V v = random_value(rng, static_cast<V*>(nullptr));
    if (pick(rng, 3) == 0) {
      m.set(k, v);
    } else {
      m.join_at(k, v);
    }
  }
  return m;
}

template <absem::NumDomain N>
void run_in_place_oracle(std::uint64_t seed, int pairs) {
  using Store = absem::AbsStore<N>;
  Rng rng(seed);
  int fresh_keys = 0;
  for (int p = 0; p < pairs; ++p) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " pair " << p);
    const Store acc = random_map<absem::AbsLoc, absem::AbsValue<N>>(rng);
    // Half the deltas grow out of acc, so most bindings meet an existing key.
    Store delta = random_map<absem::AbsLoc, absem::AbsValue<N>>(rng);
    if (pick(rng, 2) == 0) delta = acc.join(delta);
    const bool grows = !ref_leq(delta, acc);
    for (const auto& e : delta.entries()) {
      if (acc.get(e.first).is_bottom()) ++fresh_keys;
    }

    Store joined = acc;
    ASSERT_EQ(grows, join_into(joined, delta));
    ASSERT_TRUE(same_map(ref_join(acc, delta), joined)) << joined.to_string();

    Store widened = acc;
    ASSERT_EQ(grows, widen_into(widened, delta));
    ASSERT_TRUE(same_map(grows ? ref_widen_of_join(acc, delta)
                               : std::map<absem::AbsLoc, absem::AbsValue<N>>(
                                     acc.entries().begin(), acc.entries().end()),
                         widened))
        << widened.to_string();

    // Behind a copy-on-write handle: a payload another handle shares is
    // never written, and is not cloned when nothing grows.
    support::CowBox<Store> box(acc);
    const support::CowBox<Store> other = box;
    ASSERT_EQ(grows, absem::widen_into(box, delta));
    ASSERT_TRUE(*other == acc);
    ASSERT_TRUE(*box == widened);
    ASSERT_EQ(&*box == &*other, !grows);
    // An unshared payload grows in place.
    support::CowBox<Store> own(acc);
    const Store* const payload = &*own;
    ASSERT_EQ(grows, absem::widen_into(own, delta));
    ASSERT_EQ(payload, &*own);
    ASSERT_TRUE(*own == widened);
  }
  EXPECT_GT(fresh_keys, 0) << "no delta brought a key its accumulator lacks";
}

TEST(InPlaceWidening, IntervalStoresMatchWidenOfJoin) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    run_in_place_oracle<Interval>(seed, 200);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(InPlaceWidening, FlatStoresMatchWidenOfJoin) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    run_in_place_oracle<FlatInt>(seed, 200);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The value level alone: AbsValue's in-place join and widening against
/// its value-returning join and widen.
template <absem::NumDomain N>
void run_value_oracle(std::uint64_t seed, int pairs) {
  using Value = absem::AbsValue<N>;
  Rng rng(seed);
  for (int p = 0; p < pairs; ++p) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " pair " << p);
    const Value a = random_value(rng, static_cast<Value*>(nullptr));
    Value d = random_value(rng, static_cast<Value*>(nullptr));
    if (pick(rng, 3) == 0) d = a.join(d).join(a);
    const bool grows = !d.leq(a);
    Value joined = a;
    ASSERT_EQ(grows, join_into(joined, d));
    ASSERT_TRUE(joined == (grows ? a.join(d) : a)) << joined.to_string();
    Value widened = a;
    ASSERT_EQ(grows, widen_into(widened, d));
    ASSERT_TRUE(widened == (grows ? a.widen(a.join(d)) : a)) << widened.to_string();
  }
}

TEST(InPlaceWidening, AbstractValuesMatchWidenOfJoin) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    run_value_oracle<Interval>(seed, 200);
    run_value_oracle<FlatInt>(seed, 200);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace copar::absdom
