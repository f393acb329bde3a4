// 128-bit configuration fingerprints, the hashers that produce them, and
// the open-addressing table that stores them.
//
// The exploration engines deduplicate configurations by canonical identity.
// Storing one full serialized key per distinct configuration (hundreds of
// bytes each) makes memory — not reduction quality — the practical bound on
// the explorable space. A fingerprint keeps 16 bytes per configuration
// instead, and membership is tracked in an open-addressing table of
// (fingerprint, id) pairs.
//
// Two hashers live here. Fp128Hasher hashes a little-endian byte stream
// (the byte-sink interface of the canonical-key serializer); the golden
// digests of the differential tests use it. ConfigHasher is a word-level
// combiner: configurations fold their per-process and per-object digests
// (cached on the copy-on-write handles, see src/sem/config.h) and their few
// renumbered references into it, so a fingerprint no longer hashes the
// key's bytes. The contract is the same: equal canonical keys give equal
// fingerprints; distinct keys give distinct fingerprints except for a
// 2^-128-ish collision.
//
// That collision would silently merge two distinct configurations. Engines
// expose an opt-out (`--exact-keys`) that keeps full key strings and
// cross-checks them against the fingerprints, counting observed collisions
// (`fingerprint_collisions`) for collision-paranoid runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/support/hash.h"

namespace copar::support {

/// A 128-bit fingerprint. Never all-zero and never {0,1} (the hasher remaps
/// those), so the table can use them as empty/tombstone slot markers.
/// Ordered (hi, lo) — the parallel engine sorts node fingerprints to assign
/// scheduling-independent graph ids.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  friend auto operator<=>(const Fingerprint&, const Fingerprint&) = default;
};

/// Hash functor for std::unordered_* keyed by Fingerprint. The fingerprint
/// is already uniformly mixed, so folding the lanes is enough.
struct FingerprintHash {
  std::size_t operator()(const Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Streaming 128-bit hasher with the same byte-sink interface as the
/// canonical-key serializer (u8/u32/u64): two independent splitmix-based
/// 64-bit lanes over the little-endian byte stream, finalized with the
/// stream length. Same byte sequence <=> same fingerprint.
class Fp128Hasher {
 public:
  void u8(std::uint8_t v) {
    buf_ |= static_cast<std::uint64_t>(v) << (8 * nbuf_);
    len_ += 1;
    if (++nbuf_ == 8) {
      word(buf_);
      buf_ = 0;
      nbuf_ = 0;
    }
  }
  // u32/u64 pack whole words into the little-endian buffer instead of
  // looping over u8 — the canonical stream is mostly u32s, and this is the
  // hot path of canonical_fingerprint(). Byte-for-byte equivalent to the
  // per-u8 version (same buffer contents, same flush points, same len_),
  // so fingerprints are unchanged.
  void u32(std::uint32_t v) {
    const int n = nbuf_;
    len_ += 4;
    if (n <= 4) {
      buf_ |= static_cast<std::uint64_t>(v) << (8 * n);
      if ((nbuf_ = n + 4) == 8) {
        word(buf_);
        buf_ = 0;
        nbuf_ = 0;
      }
    } else {
      // 8-n low bytes complete the buffer; the remaining n-4 carry over.
      buf_ |= static_cast<std::uint64_t>(v) << (8 * n);
      word(buf_);
      buf_ = static_cast<std::uint64_t>(v) >> (8 * (8 - n));
      nbuf_ = n - 4;
    }
  }
  void u64(std::uint64_t v) {
    const int n = nbuf_;
    len_ += 8;
    if (n == 0) {
      word(v);
      return;
    }
    buf_ |= v << (8 * n);
    word(buf_);
    buf_ = v >> (8 * (8 - n));  // high n bytes start the next buffer
  }

  [[nodiscard]] Fingerprint finalize() const {
    std::uint64_t a = a_;
    std::uint64_t b = b_;
    if (nbuf_ > 0) {
      a = hash_combine(a, buf_);
      b = hash_combine(b, buf_ ^ kLaneTweak);
    }
    a = hash_combine(a, len_);
    b = hash_combine(b, len_ ^ kLaneTweak);
    Fingerprint fp{hash_mix(a), hash_mix(b)};
    // Reserve hi == 0 for the table's empty/tombstone markers.
    if (fp.hi == 0) fp.hi = 1;
    return fp;
  }

 private:
  static constexpr std::uint64_t kLaneTweak = 0x5851f42d4c957f2dULL;

  void word(std::uint64_t w) {
    a_ = hash_combine(a_, w);
    b_ = hash_combine(b_, w ^ kLaneTweak);
  }

  std::uint64_t a_ = 0x243f6a8885a308d3ULL;  // pi fractional digits
  std::uint64_t b_ = 0x13198a2e03707344ULL;
  std::uint64_t buf_ = 0;
  std::uint64_t len_ = 0;
  int nbuf_ = 0;
};

/// Word-level two-lane combiner for configuration fingerprints and the
/// per-process and per-object digests they are built from. Each lane folds
/// a 64-bit word with one 64x64->128 multiply (the high and low halves
/// xored), so a word costs a few cycles where Fp128Hasher's byte stream
/// costs two full mixes; the lanes differ in seed and multiplier, and
/// finalize() mixes in the word count. The `domain` seed keeps the digests
/// of different record kinds apart. Callers must feed an unambiguous
/// encoding (length prefixes): equal word sequences give equal digests.
class ConfigHasher {
 public:
  explicit constexpr ConfigHasher(std::uint64_t domain = 0) noexcept
      : a_(0x243f6a8885a308d3ULL ^ domain), b_(0x13198a2e03707344ULL ^ hash_mix(domain)) {}

  void word(std::uint64_t w) noexcept {
    a_ = fold(a_ ^ w, 0x9e3779b97f4a7c15ULL);
    b_ = fold(b_ ^ w, 0xd6e8feb86659fd93ULL);
    n_ += 1;
  }
  void pair(std::uint32_t lo, std::uint32_t hi) noexcept {
    word(static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32));
  }
  void digest(const Fingerprint& d) noexcept {
    word(d.hi);
    word(d.lo);
  }

  [[nodiscard]] Fingerprint finalize() const noexcept {
    Fingerprint fp{hash_mix(a_ + n_), hash_mix(b_ ^ (n_ * 0x5851f42d4c957f2dULL))};
    // Reserve hi == 0 for the table's empty/tombstone markers.
    if (fp.hi == 0) fp.hi = 1;
    return fp;
  }

 private:
  static std::uint64_t fold(std::uint64_t x, std::uint64_t k) noexcept {
    const unsigned __int128 r = static_cast<unsigned __int128>(x) * k;
    return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
  }

  std::uint64_t a_;
  std::uint64_t b_;
  std::uint64_t n_ = 0;
};

/// Open-addressing (linear probing) hash table mapping fingerprints to
/// dense ids in insertion order. ~20 bytes per slot (16-byte fingerprint +
/// 4-byte id in parallel arrays), grown at 70% load — an order of magnitude
/// below per-configuration key strings. Supports erase via tombstones
/// (hi == 0, lo == 1) for engines that re-queue work items.
class FingerprintTable {
 public:
  struct Insert {
    std::uint32_t id = 0;
    bool inserted = false;
  };

  /// Inserts `fp`, assigning the next dense id; returns the existing id
  /// when already present.
  Insert insert(const Fingerprint& fp);

  [[nodiscard]] bool contains(const Fingerprint& fp) const;

  /// Removes `fp` (tombstone). Returns true if it was present. Erased
  /// entries free their slot for reuse but their id is not recycled.
  bool erase(const Fingerprint& fp);

  /// Live entries (inserts minus erases).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Bytes held by the table's slot arrays (the dedup-structure cost the
  /// `visited_bytes` gauge reports in fingerprint mode).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Fingerprint) + ids_.capacity() * sizeof(std::uint32_t);
  }

 private:
  [[nodiscard]] static bool is_empty(const Fingerprint& fp) noexcept {
    return fp.hi == 0 && fp.lo == 0;
  }
  [[nodiscard]] static bool is_tomb(const Fingerprint& fp) noexcept {
    return fp.hi == 0 && fp.lo == 1;
  }

  void grow();

  std::vector<Fingerprint> slots_;
  std::vector<std::uint32_t> ids_;
  std::size_t size_ = 0;      // live entries
  std::size_t occupied_ = 0;  // live + tombstones (drives the load factor)
  std::uint32_t next_id_ = 0;
};

}  // namespace copar::support
