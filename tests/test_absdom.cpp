// Lattice-law and abstract-operator soundness tests for every value domain.
#include <gtest/gtest.h>

#include "src/absdom/fixpoint.h"
#include "src/absdom/flat.h"
#include "src/absdom/galois.h"
#include "src/absdom/interval.h"
#include "src/absdom/map.h"
#include "src/absdom/powerset.h"
#include "src/absdom/sign.h"

namespace copar::absdom {
namespace {

const std::vector<std::int64_t> kInts = {-7, -2, -1, 0, 1, 2, 3, 5, 100};

std::vector<FlatInt> flat_sample() {
  std::vector<FlatInt> s = {FlatInt::bottom(), FlatInt::top()};
  for (std::int64_t v : kInts) s.push_back(FlatInt::constant(v));
  return s;
}

std::vector<Interval> interval_sample() {
  std::vector<Interval> s = {Interval::bottom(), Interval::top(), Interval::range(0, 5),
                             Interval::range(-3, 3), Interval::range(2, 100),
                             Interval::range(Interval::kNegInf, 0)};
  for (std::int64_t v : kInts) s.push_back(Interval::constant(v));
  return s;
}

std::vector<Sign> sign_sample() {
  std::vector<Sign> s;
  for (std::uint8_t bits = 0; bits < 8; ++bits) s.push_back(Sign::from_bits(bits));
  return s;
}

TEST(LatticeLaws, Flat) {
  const LawCheck c = check_lattice_laws(flat_sample());
  EXPECT_TRUE(c.ok) << c.violation;
}

TEST(LatticeLaws, Interval) {
  const LawCheck c = check_lattice_laws(interval_sample());
  EXPECT_TRUE(c.ok) << c.violation;
}

TEST(LatticeLaws, Sign) {
  const LawCheck c = check_lattice_laws(sign_sample());
  EXPECT_TRUE(c.ok) << c.violation;
}

TEST(LatticeLaws, PowerSet) {
  std::vector<PowerSet<int>> s = {PowerSet<int>::bottom(), PowerSet<int>::singleton(1),
                                  PowerSet<int>::singleton(2),
                                  PowerSet<int>::singleton(1).join(PowerSet<int>::singleton(2)),
                                  PowerSet<int>({std::set<int>{1, 2, 3}})};
  const LawCheck c = check_lattice_laws(s);
  EXPECT_TRUE(c.ok) << c.violation;
}

TEST(LatticeLaws, MapLattice) {
  MapLattice<int, FlatInt> a;
  a.join_at(1, FlatInt::constant(3));
  MapLattice<int, FlatInt> b;
  b.join_at(1, FlatInt::constant(4));
  b.join_at(2, FlatInt::constant(5));
  const LawCheck c =
      check_lattice_laws<MapLattice<int, FlatInt>>({MapLattice<int, FlatInt>::bottom(), a, b,
                                                    a.join(b)});
  EXPECT_TRUE(c.ok) << c.violation;
}

// --- abstract operator soundness over sampled integers ---------------------

struct OpCase {
  const char* name;
  std::optional<std::int64_t> (*conc)(std::int64_t, std::int64_t);
};
// Print a case by its name: the default printer dumps the raw bytes,
// pointers included, so ctest test names would change with every run.
void PrintTo(const OpCase& op, std::ostream* os) { *os << op.name; }

const OpCase kOps[] = {
    {"add", [](std::int64_t x, std::int64_t y) -> std::optional<std::int64_t> { return x + y; }},
    {"sub", [](std::int64_t x, std::int64_t y) -> std::optional<std::int64_t> { return x - y; }},
    {"mul", [](std::int64_t x, std::int64_t y) -> std::optional<std::int64_t> { return x * y; }},
    {"div",
     [](std::int64_t x, std::int64_t y) -> std::optional<std::int64_t> {
       if (y == 0) return std::nullopt;
       return x / y;
     }},
    {"mod",
     [](std::int64_t x, std::int64_t y) -> std::optional<std::int64_t> {
       if (y == 0) return std::nullopt;
       return x % y;
     }},
};

template <typename D>
D abs_op_of(const char* name, const D& a, const D& b) {
  const std::string n = name;
  if (n == "add") return D::add(a, b);
  if (n == "sub") return D::sub(a, b);
  if (n == "mul") return D::mul(a, b);
  if (n == "div") return D::div(a, b);
  return D::mod(a, b);
}

class FlatOps : public ::testing::TestWithParam<OpCase> {};
class IntervalOps : public ::testing::TestWithParam<OpCase> {};
class SignOps : public ::testing::TestWithParam<OpCase> {};

TEST_P(FlatOps, Sound) {
  const OpCase& op = GetParam();
  const LawCheck c = check_binop_sound<FlatInt>(
      kInts, [](std::int64_t v) { return FlatInt::constant(v); },
      [](std::int64_t v, const FlatInt& d) {
        if (d.is_top()) return true;
        auto k = d.as_constant();
        return k.has_value() && *k == v;
      },
      [&](const FlatInt& a, const FlatInt& b) { return abs_op_of(op.name, a, b); }, op.conc);
  EXPECT_TRUE(c.ok) << c.violation;
}

TEST_P(IntervalOps, Sound) {
  const OpCase& op = GetParam();
  const LawCheck c = check_binop_sound<Interval>(
      kInts, [](std::int64_t v) { return Interval::constant(v); },
      [](std::int64_t v, const Interval& d) {
        return !d.is_bottom() && d.lo() <= v && v <= d.hi();
      },
      [&](const Interval& a, const Interval& b) { return abs_op_of(op.name, a, b); }, op.conc);
  EXPECT_TRUE(c.ok) << c.violation;
}

TEST_P(SignOps, Sound) {
  const OpCase& op = GetParam();
  const LawCheck c = check_binop_sound<Sign>(
      kInts, [](std::int64_t v) { return Sign::constant(v); },
      [](std::int64_t v, const Sign& d) { return Sign::constant(v).leq(d); },
      [&](const Sign& a, const Sign& b) { return abs_op_of(op.name, a, b); }, op.conc);
  EXPECT_TRUE(c.ok) << c.violation;
}

INSTANTIATE_TEST_SUITE_P(AllOps, FlatOps, ::testing::ValuesIn(kOps),
                         [](const auto& param_info) { return param_info.param.name; });
INSTANTIATE_TEST_SUITE_P(AllOps, IntervalOps, ::testing::ValuesIn(kOps),
                         [](const auto& param_info) { return param_info.param.name; });
INSTANTIATE_TEST_SUITE_P(AllOps, SignOps, ::testing::ValuesIn(kOps),
                         [](const auto& param_info) { return param_info.param.name; });

// --- comparisons and truthiness --------------------------------------------

TEST(FlatDomain, ComparisonOnConstants) {
  const FlatInt r = FlatInt::cmp(FlatInt::constant(2), FlatInt::constant(3),
                                 [](std::int64_t x, std::int64_t y) { return x < y; });
  EXPECT_EQ(r.as_constant(), 1);
}

TEST(FlatDomain, Truthiness) {
  EXPECT_TRUE(FlatInt::constant(5).may_be_truthy());
  EXPECT_FALSE(FlatInt::constant(5).may_be_falsy());
  EXPECT_TRUE(FlatInt::top().may_be_truthy());
  EXPECT_TRUE(FlatInt::top().may_be_falsy());
  EXPECT_FALSE(FlatInt::bottom().may_be_truthy());
}

// Interval comparisons claim to be exact for the six orderings: check
// against brute force over all small intervals.
struct CmpCase {
  const char* name;
  bool (*pred)(std::int64_t, std::int64_t);
};
void PrintTo(const CmpCase& c, std::ostream* os) { *os << c.name; }
class IntervalCmp : public ::testing::TestWithParam<CmpCase> {};

TEST_P(IntervalCmp, ExactOnSmallIntervals) {
  const auto pred = GetParam().pred;
  for (std::int64_t alo = -3; alo <= 3; ++alo) {
    for (std::int64_t ahi = alo; ahi <= 3; ++ahi) {
      for (std::int64_t blo = -3; blo <= 3; ++blo) {
        for (std::int64_t bhi = blo; bhi <= 3; ++bhi) {
          bool can_true = false;
          bool can_false = false;
          for (std::int64_t x = alo; x <= ahi; ++x) {
            for (std::int64_t y = blo; y <= bhi; ++y) {
              (pred(x, y) ? can_true : can_false) = true;
            }
          }
          const Interval r =
              Interval::cmp(Interval::range(alo, ahi), Interval::range(blo, bhi), pred);
          EXPECT_EQ(r.hi() == 1, can_true)
              << GetParam().name << " [" << alo << "," << ahi << "] vs [" << blo << ","
              << bhi << "]";
          EXPECT_EQ(r.lo() == 0, can_false)
              << GetParam().name << " [" << alo << "," << ahi << "] vs [" << blo << ","
              << bhi << "]";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orderings, IntervalCmp,
    ::testing::Values(
        CmpCase{"lt", +[](std::int64_t x, std::int64_t y) { return x < y; }},
        CmpCase{"le", +[](std::int64_t x, std::int64_t y) { return x <= y; }},
        CmpCase{"gt", +[](std::int64_t x, std::int64_t y) { return x > y; }},
        CmpCase{"ge", +[](std::int64_t x, std::int64_t y) { return x >= y; }},
        CmpCase{"eq", +[](std::int64_t x, std::int64_t y) { return x == y; }},
        CmpCase{"ne", +[](std::int64_t x, std::int64_t y) { return x != y; }}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(IntervalDomain, CmpWithInfiniteBounds) {
  const auto ge = +[](std::int64_t x, std::int64_t y) { return x >= y; };
  // [0, +inf] >= [0,0]: always true.
  EXPECT_EQ(Interval::cmp(Interval::range(0, Interval::kPosInf), Interval::constant(0), ge)
                .as_constant(),
            1);
  // [-inf, -1] >= [0,0]: always false.
  EXPECT_EQ(Interval::cmp(Interval::range(Interval::kNegInf, -1), Interval::constant(0), ge)
                .as_constant(),
            0);
  // top vs top: undecided.
  EXPECT_EQ(Interval::cmp(Interval::top(), Interval::top(), ge), Interval::range(0, 1));
}

TEST(IntervalDomain, WideningStabilizesAscendingChain) {
  Interval acc = Interval::constant(0);
  for (int i = 1; i < 100; ++i) {
    const Interval next = acc.join(Interval::constant(i));
    if (next.leq(acc)) break;
    acc = acc.widen(next);
  }
  EXPECT_EQ(acc.hi(), Interval::kPosInf);  // jumped to +inf instead of crawling
  EXPECT_EQ(acc.lo(), 0);
}

TEST(IntervalDomain, TruthinessAroundZero) {
  EXPECT_TRUE(Interval::range(-1, 1).may_be_falsy());
  EXPECT_TRUE(Interval::range(-1, 1).may_be_truthy());
  EXPECT_FALSE(Interval::constant(0).may_be_truthy());
  EXPECT_FALSE(Interval::range(1, 5).may_be_falsy());
}

TEST(IntervalDomain, DivisionAtTheRails) {
  // kNegInf doubles as the finite INT64_MIN, so INT64_MIN / -1 — the one
  // overflowing case of signed division, a hardware trap — must never reach
  // the CPU (regression: it used to SIGFPE).
  const Interval int_min = Interval::constant(Interval::kNegInf);
  EXPECT_EQ(Interval::div(int_min, Interval::constant(-1)).hi(), Interval::kPosInf);
  // -∞ / -1 flips the bound to +∞.
  EXPECT_EQ(Interval::div(Interval::range(Interval::kNegInf, 0), Interval::constant(-1)),
            Interval::range(0, Interval::kPosInf));
  // Infinite bounds divide without collapsing: top / 2 stays top.
  EXPECT_TRUE(Interval::div(Interval::top(), Interval::constant(2)).is_top());
  // Plain finite division still folds exactly.
  EXPECT_EQ(Interval::div(Interval::range(-9, 9), Interval::constant(3)),
            Interval::range(-3, 3));
}

TEST(IntervalDomain, ModuloAtTheRails) {
  // INT64_MIN % -1 traps on hardware like the division; x % -1 == 0 for
  // every x, so the domain folds it before the CPU sees it.
  EXPECT_EQ(Interval::mod(Interval::constant(Interval::kNegInf), Interval::constant(-1))
                .as_constant(),
            0);
  EXPECT_EQ(Interval::mod(Interval::constant(7), Interval::constant(-1)).as_constant(), 0);
  // ±∞ sentinels are not real constants: folding them as INT64_MIN/MAX
  // would invent a value; the result must stay top.
  EXPECT_TRUE(
      Interval::mod(Interval::constant(Interval::kNegInf), Interval::constant(7)).is_top());
  EXPECT_TRUE(
      Interval::mod(Interval::constant(Interval::kPosInf), Interval::constant(7)).is_top());
  EXPECT_EQ(Interval::mod(Interval::constant(-7), Interval::constant(3)).as_constant(),
            -7 % 3);
}

TEST(IntervalDomain, WideningIsStableAtTheRails) {
  // A bound already at its rail has nowhere to jump: widening is idempotent
  // there, and a near-rail bound that moves lands exactly on the rail (no
  // off-by-one overflow past it).
  const Interval at_rail = Interval::range(0, Interval::kPosInf);
  EXPECT_EQ(at_rail.widen(at_rail), at_rail);
  const Interval near_hi = Interval::range(0, Interval::kPosInf - 1);
  EXPECT_EQ(near_hi.widen(Interval::range(0, Interval::kPosInf)).hi(), Interval::kPosInf);
  const Interval near_lo = Interval::range(Interval::kNegInf + 1, 0);
  EXPECT_EQ(near_lo.widen(Interval::range(Interval::kNegInf, 0)).lo(), Interval::kNegInf);
}

TEST(IntervalDomain, NarrowingRefinesOnlyInfiniteBounds) {
  // narrow() undoes widening jumps: an infinite bound is refined from the
  // next iterate, a finite bound never moves (so it cannot oscillate).
  EXPECT_EQ(Interval::top().narrow(Interval::range(0, 5)), Interval::range(0, 5));
  EXPECT_EQ(Interval::range(0, Interval::kPosInf).narrow(Interval::range(0, 7)),
            Interval::range(0, 7));
  EXPECT_EQ(Interval::range(Interval::kNegInf, 9).narrow(Interval::range(-2, 9)),
            Interval::range(-2, 9));
  EXPECT_EQ(Interval::range(0, 5).narrow(Interval::range(1, 4)), Interval::range(0, 5));
  EXPECT_TRUE(Interval::range(0, 5).narrow(Interval::bottom()).is_bottom());
  EXPECT_EQ(Interval::bottom().narrow(Interval::range(0, 5)), Interval::range(0, 5));
}

TEST(FlatDomain, NarrowingRefinesOnlyTop) {
  EXPECT_EQ(FlatInt::top().narrow(FlatInt::constant(3)), FlatInt::constant(3));
  EXPECT_EQ(FlatInt::constant(4).narrow(FlatInt::constant(3)), FlatInt::constant(4));
  EXPECT_EQ(FlatInt::bottom().narrow(FlatInt::constant(3)), FlatInt::bottom());
}

TEST(SignDomain, NegateSwapsSigns) {
  EXPECT_EQ(Sign::negate(Sign::constant(3)), Sign::constant(-3));
  EXPECT_EQ(Sign::negate(Sign::constant(0)), Sign::constant(0));
  EXPECT_EQ(Sign::negate(Sign::top()), Sign::top());
}

TEST(MapLattice, WeakAndStrongUpdates) {
  MapLattice<int, FlatInt> m;
  EXPECT_TRUE(m.join_at(1, FlatInt::constant(3)));
  EXPECT_FALSE(m.join_at(1, FlatInt::constant(3)));  // no growth
  EXPECT_TRUE(m.join_at(1, FlatInt::constant(4)));   // grows to top
  EXPECT_TRUE(m.get(1).is_top());
  m.set(1, FlatInt::constant(7));
  EXPECT_EQ(m.get(1).as_constant(), 7);
  EXPECT_TRUE(m.get(99).is_bottom());
}

// --- fixpoint solver --------------------------------------------------------

TEST(Fixpoint, SolvesReachabilityStyleEquations) {
  // Chain 0 -> 1 -> 2 with increments capped by the flat lattice: values
  // propagate and stabilize.
  FixpointSolver<FlatInt> solver(3);
  solver.add_edge(0, 1);
  solver.add_edge(1, 2);
  solver.seed(0, FlatInt::constant(5));
  const FixpointStats stats = solver.solve([](std::size_t n, const auto& read) {
    if (n == 0) return read(0);
    return read(n - 1);
  });
  EXPECT_EQ(solver.value(2).as_constant(), 5);
  EXPECT_GT(stats.iterations, 0u);
}

TEST(Fixpoint, WideningTerminatesLoopEquations) {
  // Node 1 models a loop head: X1 = X1 + [1,1] joined with the entry [0,0].
  FixpointSolver<Interval> solver(2);
  solver.add_edge(0, 1);
  solver.add_edge(1, 1);
  solver.seed(0, Interval::constant(0));
  const FixpointStats stats = solver.solve(
      [](std::size_t n, const auto& read) {
        if (n == 0) return Interval::constant(0);
        return read(0).join(Interval::add(read(1), Interval::constant(1)));
      },
      /*use_widening=*/true);
  EXPECT_TRUE(Interval::range(0, 10).leq(solver.value(1)));
  EXPECT_LT(stats.iterations, 100u);  // widening, not a crawl to +inf
}

}  // namespace
}  // namespace copar::absdom

// NOTE: appended tests for the parity domain.
#include "src/absdom/parity.h"
#include "src/absem/absexplore.h"
#include "src/sem/program.h"

namespace copar::absdom {
namespace {

std::vector<Parity> parity_sample() {
  std::vector<Parity> s;
  for (std::uint8_t bits = 0; bits < 4; ++bits) s.push_back(Parity::from_bits(bits));
  return s;
}

TEST(LatticeLaws, Parity) {
  const LawCheck c = check_lattice_laws(parity_sample());
  EXPECT_TRUE(c.ok) << c.violation;
}

class ParityOps : public ::testing::TestWithParam<OpCase> {};

TEST_P(ParityOps, Sound) {
  const OpCase& op = GetParam();
  const LawCheck c = check_binop_sound<Parity>(
      kInts, [](std::int64_t v) { return Parity::constant(v); },
      [](std::int64_t v, const Parity& d) { return Parity::constant(v).leq(d); },
      [&](const Parity& a, const Parity& b) { return abs_op_of(op.name, a, b); }, op.conc);
  EXPECT_TRUE(c.ok) << c.violation;
}

INSTANTIATE_TEST_SUITE_P(AllOps, ParityOps, ::testing::ValuesIn(kOps),
                         [](const auto& param_info) { return param_info.param.name; });

TEST(ParityDomain, ArithmeticRules) {
  const Parity even = Parity::constant(2);
  const Parity odd = Parity::constant(3);
  EXPECT_EQ(Parity::add(even, odd), odd);
  EXPECT_EQ(Parity::add(odd, odd), even);
  EXPECT_EQ(Parity::mul(even, odd), even);
  EXPECT_EQ(Parity::mul(odd, odd), odd);
}

TEST(ParityDomain, Truthiness) {
  EXPECT_TRUE(Parity::constant(2).may_be_falsy());   // 0 is even
  EXPECT_FALSE(Parity::constant(3).may_be_falsy());  // odd is never 0
  EXPECT_TRUE(Parity::constant(3).may_be_truthy());
}

TEST(ParityDomain, EndToEndLoopInvariant) {
  // x alternates 0,2,4,...: stays even through the abstract loop.
  auto p = copar::compile(R"(
    var x;
    fun main() {
      while (true) { sQ: x = x + 2; }
    }
  )");
  absem::AbsExplorer<Parity> engine(*p->lowered, {});
  const auto r = engine.run();
  EXPECT_FALSE(r.truncated);
  std::uint32_t slot = 0;
  for (const auto& g : p->lowered->globals()) {
    if (p->lowered->module().interner().spelling(g.name) == "x") slot = g.slot;
  }
  bool found = false;
  for (const auto& [point, store] : r.point_stores) {
    const auto v = store.get(absem::AbsLoc::global(slot));
    if (!v.num.is_bottom()) {
      found = true;
      EXPECT_EQ(v.num, Parity::constant(0)) << "x stayed even";
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace copar::absdom
