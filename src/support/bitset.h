// Dense dynamic bitset tuned for location read/write sets.
//
// Stubborn-set computation tests "does the write set of action a intersect
// the read∪write set of action b" once per pair of enabled processes per
// expansion step, so intersection tests must not allocate. DynamicBitset
// grows on demand and treats missing high bits as zero, which lets sets over
// different store sizes interoperate.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/support/hash.h"

namespace copar {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t nbits) : words_((nbits + 63) / 64) {}

  void set(std::size_t bit);
  void reset(std::size_t bit);
  [[nodiscard]] bool test(std::size_t bit) const noexcept;

  /// True if any bit is set in both; no allocation.
  [[nodiscard]] bool intersects(const DynamicBitset& other) const noexcept;

  /// True if no bit is set.
  [[nodiscard]] bool empty() const noexcept;

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);

  void clear() noexcept { words_.clear(); }

  /// The backing words, bit i in word i / 64; missing high words are zero.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Indices of all set bits, ascending.
  [[nodiscard]] std::vector<std::size_t> bits() const;

  /// Calls f(index) for each set bit, ascending.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int b = __builtin_ctzll(word);
        f(w * 64 + static_cast<std::size_t>(b));
        word &= word - 1;
      }
    }
  }

  [[nodiscard]] std::uint64_t hash() const noexcept;
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) noexcept;

 private:
  void ensure(std::size_t bit);
  std::vector<std::uint64_t> words_;
};

}  // namespace copar
