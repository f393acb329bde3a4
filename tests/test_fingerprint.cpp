// Unit tests of the two 128-bit hashers and the open-addressing fingerprint
// table. The key/fingerprint contract on real configurations is tested in
// test_config_fingerprint.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/support/fingerprint.h"

namespace copar::support {
namespace {

Fingerprint fp_of_bytes(const std::string& bytes) {
  Fp128Hasher h;
  for (char c : bytes) h.u8(static_cast<std::uint8_t>(c));
  return h.finalize();
}

TEST(Fp128Hasher, DeterministicAndLengthSensitive) {
  EXPECT_EQ(fp_of_bytes("hello"), fp_of_bytes("hello"));
  EXPECT_FALSE(fp_of_bytes("hello") == fp_of_bytes("hello!"));
  // Trailing zero bytes must change the fingerprint (length is hashed).
  EXPECT_FALSE(fp_of_bytes("abc") == fp_of_bytes(std::string("abc\0", 4)));
  EXPECT_FALSE(fp_of_bytes("") == fp_of_bytes(std::string(1, '\0')));
}

TEST(Fp128Hasher, WidthHelpersMatchByteStream) {
  // u32/u64 are defined as their little-endian byte sequences.
  Fp128Hasher a;
  a.u32(0x04030201u);
  Fp128Hasher b;
  for (std::uint8_t v : {1, 2, 3, 4}) b.u8(v);
  EXPECT_EQ(a.finalize(), b.finalize());

  Fp128Hasher c;
  c.u64(0x0807060504030201ull);
  Fp128Hasher d;
  for (std::uint8_t v : {1, 2, 3, 4, 5, 6, 7, 8}) d.u8(v);
  EXPECT_EQ(c.finalize(), d.finalize());

  // ...at every buffer offset, not just word-aligned ones: the packed
  // u32/u64 fast paths carry bytes across the 8-byte flush boundary, and
  // each carry case (offset 5..7 for u32, 1..7 for u64) must produce the
  // same stream as the byte-at-a-time definition.
  for (int off = 0; off < 8; ++off) {
    Fp128Hasher e;
    Fp128Hasher f;
    for (int i = 0; i < off; ++i) {
      e.u8(static_cast<std::uint8_t>(0x40 + i));
      f.u8(static_cast<std::uint8_t>(0x40 + i));
    }
    e.u32(0xd4c3b2a1u);
    for (std::uint8_t v : {0xa1, 0xb2, 0xc3, 0xd4}) f.u8(v);
    e.u64(0x8877665544332211ull);
    for (std::uint8_t v : {0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}) f.u8(v);
    EXPECT_EQ(e.finalize(), f.finalize()) << "offset " << off;
  }
}

TEST(Fp128Hasher, NeverProducesReservedMarkers) {
  // Exhaustive search is impossible; spot-check a pile of inputs for the
  // structural guarantee hi != 0 (empty/tombstone markers are hi == 0).
  for (std::uint32_t i = 0; i < 10000; ++i) {
    Fp128Hasher h;
    h.u32(i);
    EXPECT_NE(h.finalize().hi, 0u);
  }
}

TEST(FingerprintTable, InsertAssignsDenseIdsAndDedups) {
  FingerprintTable t;
  for (std::uint32_t i = 0; i < 100; ++i) {
    Fp128Hasher h;
    h.u32(i);
    const auto r = t.insert(h.finalize());
    EXPECT_TRUE(r.inserted);
    EXPECT_EQ(r.id, i);
  }
  EXPECT_EQ(t.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    Fp128Hasher h;
    h.u32(i);
    const auto r = t.insert(h.finalize());
    EXPECT_FALSE(r.inserted);
    EXPECT_EQ(r.id, i);
    EXPECT_TRUE(t.contains(h.finalize()));
  }
  EXPECT_EQ(t.size(), 100u);
}

TEST(FingerprintTable, EraseAndTombstoneReuse) {
  FingerprintTable t;
  std::vector<Fingerprint> fps;
  for (std::uint32_t i = 0; i < 200; ++i) {
    Fp128Hasher h;
    h.u32(i);
    fps.push_back(h.finalize());
    t.insert(fps.back());
  }
  for (std::uint32_t i = 0; i < 200; i += 2) EXPECT_TRUE(t.erase(fps[i]));
  EXPECT_EQ(t.size(), 100u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(t.contains(fps[i]), i % 2 == 1) << i;
  }
  EXPECT_FALSE(t.erase(fps[0]));  // already gone
  // Re-inserting erased fingerprints must work (tombstone reuse) and keep
  // probing for survivors intact.
  for (std::uint32_t i = 0; i < 200; i += 2) EXPECT_TRUE(t.insert(fps[i]).inserted);
  EXPECT_EQ(t.size(), 200u);
  for (const Fingerprint& fp : fps) EXPECT_TRUE(t.contains(fp));
}

TEST(FingerprintTable, SurvivesGrowthWithManyEntries) {
  FingerprintTable t;
  constexpr std::uint32_t kN = 5000;
  for (std::uint32_t i = 0; i < kN; ++i) {
    Fp128Hasher h;
    h.u64(i * 0x9e3779b97f4a7c15ull);
    ASSERT_TRUE(t.insert(h.finalize()).inserted);
  }
  EXPECT_EQ(t.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    Fp128Hasher h;
    h.u64(i * 0x9e3779b97f4a7c15ull);
    EXPECT_TRUE(t.contains(h.finalize()));
  }
  // ~20 bytes per slot at <= 70% load: far below a string-keyed map.
  EXPECT_GT(t.memory_bytes(), kN * sizeof(Fingerprint));
  EXPECT_LT(t.memory_bytes(), kN * 4 * (sizeof(Fingerprint) + sizeof(std::uint32_t)));
}

TEST(ConfigHasher, OrderLengthAndDomainSensitive) {
  auto fp = [](std::uint64_t domain, std::initializer_list<std::uint64_t> words) {
    ConfigHasher h(domain);
    for (const std::uint64_t w : words) h.word(w);
    return h.finalize();
  };
  EXPECT_EQ(fp(0, {1, 2, 3}), fp(0, {1, 2, 3}));
  EXPECT_NE(fp(0, {1, 2, 3}), fp(0, {3, 2, 1}));
  EXPECT_NE(fp(0, {1, 2}), fp(0, {1, 2, 0}));
  EXPECT_NE(fp(0, {}), fp(0, {0}));
  EXPECT_NE(fp(0, {1, 2}), fp(1, {1, 2}));
  ConfigHasher a;
  a.pair(1, 2);
  ConfigHasher b;
  b.word(std::uint64_t{2} << 32 | 1);
  EXPECT_EQ(a.finalize(), b.finalize());
  ConfigHasher c;
  c.digest(Fingerprint{5, 6});
  EXPECT_EQ(c.finalize(), fp(0, {5, 6}));
}

TEST(ConfigHasher, DistinctOnDenseSmallInputs) {
  // Structured inputs like the canonical walk's (small ids, many zero
  // words) must not collide: every sequence of one to three words over a
  // small alphabet gets its own fingerprint, and none is a reserved marker.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::size_t n = 0;
  auto add = [&](std::initializer_list<std::uint64_t> words) {
    ConfigHasher h;
    for (const std::uint64_t w : words) h.word(w);
    const Fingerprint fp = h.finalize();
    EXPECT_NE(fp.hi, 0u);
    seen.emplace(fp.hi, fp.lo);
    n += 1;
  };
  for (std::uint64_t x = 0; x < 40; ++x) {
    add({x});
    for (std::uint64_t y = 0; y < 40; ++y) {
      add({x, y});
      for (std::uint64_t z = 0; z < 40; ++z) add({x, y, z});
    }
  }
  EXPECT_EQ(seen.size(), n);
}

}  // namespace
}  // namespace copar::support
