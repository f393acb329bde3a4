// Differential oracle for the flat PowerSet: a std::set formulation of the
// powerset lattice (the representation the sorted vector replaced) must
// agree with it on every result — join, join_with's growth flag, widen,
// meet, leq, insert, contains, ==, the order of elems() and to_string —
// over seeded random operation sequences, for int sets and for sets of
// abstract locations.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/absdom/powerset.h"
#include "src/absem/absloc.h"

namespace copar::absdom {
namespace {

// ---- The reference: the ordered-set formulation ---------------------------

template <typename T>
std::set<T> ref_join(const std::set<T>& a, const std::set<T>& b) {
  std::set<T> out = a;
  out.insert(b.begin(), b.end());
  return out;
}

template <typename T>
std::set<T> ref_meet(const std::set<T>& a, const std::set<T>& b) {
  std::set<T> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(out, out.begin()));
  return out;
}

template <typename T>
bool ref_leq(const std::set<T>& a, const std::set<T>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

template <typename T>
std::string ref_to_string(const std::set<T>& s) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const T& e : s) {
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

// ---- Random elements -------------------------------------------------------

using Rng = std::mt19937_64;

std::size_t pick(Rng& rng, std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

int random_elem(Rng& rng, int*) { return static_cast<int>(pick(rng, 16)) - 4; }

absem::AbsLoc random_elem(Rng& rng, absem::AbsLoc*) {
  const auto a = static_cast<std::uint32_t>(pick(rng, 3));
  switch (pick(rng, 3)) {
    case 0: return absem::AbsLoc::global(a);
    case 1:
      return absem::AbsLoc::frame(a, static_cast<std::uint32_t>(pick(rng, 3)),
                                  static_cast<std::uint32_t>(pick(rng, 2)));
    default: return absem::AbsLoc::heap(a);
  }
}

// ---- The differential driver ----------------------------------------------

template <typename T>
::testing::AssertionResult same(const std::set<T>& ref, const PowerSet<T>& flat) {
  if (!std::equal(ref.begin(), ref.end(), flat.elems().begin(), flat.elems().end())) {
    return ::testing::AssertionFailure()
           << "elements " << ref_to_string(ref) << " vs " << flat.to_string();
  }
  if (ref.size() != flat.size() || ref.empty() != flat.is_bottom()) {
    return ::testing::AssertionFailure() << "size or bottom differ at " << flat.to_string();
  }
  if (ref_to_string(ref) != flat.to_string()) {
    return ::testing::AssertionFailure() << "to_string differs at " << flat.to_string();
  }
  return ::testing::AssertionSuccess();
}

/// Runs `steps` random operations over four set pairs (reference, flat)
/// kept in lockstep; every result and every set must agree.
template <typename T>
void run_oracle(std::uint64_t seed, int steps) {
  Rng rng(seed);
  constexpr std::size_t kSets = 4;
  std::vector<std::set<T>> ref(kSets);
  std::vector<PowerSet<T>> flat(kSets);
  auto elem = [&] { return random_elem(rng, static_cast<T*>(nullptr)); };
  for (int step = 0; step < steps; ++step) {
    const std::size_t i = pick(rng, kSets);
    const std::size_t j = pick(rng, kSets);
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    switch (pick(rng, 10)) {
      case 0:
      case 1: {
        const T e = elem();
        ref[i].insert(e);
        flat[i].insert(e);
        break;
      }
      case 2: {
        const T e = elem();
        ASSERT_EQ(ref[i].contains(e), flat[i].contains(e));
        break;
      }
      case 3: {
        const auto r = ref_join(ref[i], ref[j]);
        ASSERT_TRUE(same(r, flat[i].join(flat[j])));
        ASSERT_TRUE(same(r, flat[i].widen(flat[j])));
        if (pick(rng, 2) == 0) {
          ref[i] = r;
          flat[i] = flat[i].join(flat[j]);
        }
        break;
      }
      case 4: {
        const bool grew = !ref_leq(ref[j], ref[i]);
        ref[i] = ref_join(ref[i], ref[j]);
        ASSERT_EQ(grew, flat[i].join_with(flat[j]));
        break;
      }
      case 5: {
        const auto r = ref_meet(ref[i], ref[j]);
        ASSERT_TRUE(same(r, flat[i].meet(flat[j])));
        if (pick(rng, 4) == 0) {
          ref[i] = r;
          flat[i] = flat[i].meet(flat[j]);
        }
        break;
      }
      case 6:
        ASSERT_EQ(ref_leq(ref[i], ref[j]), flat[i].leq(flat[j]));
        ASSERT_EQ(ref_leq(ref[j], ref[i]), flat[j].leq(flat[i]));
        break;
      case 7: {
        ASSERT_TRUE(same(ref[i], PowerSet<T>(ref[i])));
        const T e = elem();
        ASSERT_TRUE(same(std::set<T>{e}, PowerSet<T>::singleton(e)));
        break;
      }
      default:
        ASSERT_EQ(ref[i] == ref[j], flat[i] == flat[j]);
        break;
    }
    ASSERT_TRUE(same(ref[i], flat[i]));
  }
  for (std::size_t i = 0; i < kSets; ++i) ASSERT_TRUE(same(ref[i], flat[i]));
}

TEST(PowerSetOracle, IntSetsMatchOrderedSet) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_oracle<int>(seed, 300);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PowerSetOracle, LocationSetsMatchOrderedSet) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_oracle<absem::AbsLoc>(seed, 300);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Inserting an element already present, or joining a subset in place,
/// leaves the set as it was.
TEST(PowerSetOracle, DuplicatesAndSubsetsDoNotGrow) {
  PowerSet<int> s;
  s.insert(3);
  s.insert(1);
  s.insert(3);
  EXPECT_EQ(s.to_string(), "{1,3}");
  EXPECT_FALSE(s.join_with(PowerSet<int>::singleton(1)));
  EXPECT_FALSE(s.join_with(PowerSet<int>::bottom()));
  EXPECT_TRUE(s.join_with(PowerSet<int>::singleton(2)));
  EXPECT_EQ(s.to_string(), "{1,2,3}");
}

}  // namespace
}  // namespace copar::absdom
