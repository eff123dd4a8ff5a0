// Fixed-size dynamic bitmap used for page-validity bits.
//
// A Gecko entry carries a bitmap of B (or B/S) bits; a GC query result is a
// bitmap of B bits. std::vector<bool> is avoided for its proxy-reference
// quirks; this class stores whole 64-bit words and supports the bitwise-OR
// merge that Algorithm 3 of the paper requires.
//
// Up to kInlineBits bits live inside the object, so a Gecko entry or a GC
// query of a block of at most that many pages allocates nothing; larger
// bitmaps keep their words on the heap.

#ifndef GECKOFTL_UTIL_BITMAP_H_
#define GECKOFTL_UTIL_BITMAP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "util/check.h"

namespace gecko {

/// Bitmap with a fixed number of bits chosen at construction.
class Bitmap {
 public:
  /// Bitmaps of at most this many bits keep their words inline.
  static constexpr size_t kInlineBits = 128;

  Bitmap() : num_bits_(0) {}
  explicit Bitmap(size_t num_bits) : num_bits_(num_bits) {
    if (!inline_storage()) words_.heap = new uint64_t[num_words()];
    std::fill_n(words(), num_words(), uint64_t{0});
  }
  Bitmap(const Bitmap& other) : num_bits_(other.num_bits_) {
    if (!inline_storage()) words_.heap = new uint64_t[num_words()];
    std::copy_n(other.words(), num_words(), words());
  }
  /// Leaves `other` empty (zero bits).
  Bitmap(Bitmap&& other) noexcept
      : num_bits_(other.num_bits_), words_(other.words_) {
    other.num_bits_ = 0;
  }
  Bitmap& operator=(Bitmap other) noexcept {
    std::swap(num_bits_, other.num_bits_);
    std::swap(words_, other.words_);
    return *this;
  }
  ~Bitmap() {
    if (!inline_storage()) delete[] words_.heap;
  }

  size_t size() const { return num_bits_; }

  bool Test(size_t i) const {
    GECKO_CHECK_LT(i, num_bits_);
    return (words()[i / 64] >> (i % 64)) & 1u;
  }

  void Set(size_t i) {
    GECKO_CHECK_LT(i, num_bits_);
    words()[i / 64] |= uint64_t{1} << (i % 64);
  }

  void Clear(size_t i) {
    GECKO_CHECK_LT(i, num_bits_);
    words()[i / 64] &= ~(uint64_t{1} << (i % 64));
  }

  void Reset() { std::fill_n(words(), num_words(), uint64_t{0}); }

  /// Bitwise-OR merge with another bitmap of the same size (Algorithm 3).
  void OrWith(const Bitmap& other) {
    GECKO_CHECK_EQ(num_bits_, other.num_bits_);
    uint64_t* mine = words();
    const uint64_t* theirs = other.words();
    for (size_t i = 0; i < num_words(); ++i) mine[i] |= theirs[i];
  }

  /// Number of set bits (the paper's "hamming weight", Appendix C step 5).
  size_t Count() const {
    size_t n = 0;
    const uint64_t* w = words();
    for (size_t i = 0; i < num_words(); ++i) n += std::popcount(w[i]);
    return n;
  }

  bool Any() const {
    const uint64_t* w = words();
    return std::any_of(w, w + num_words(), [](uint64_t x) { return x != 0; });
  }

  bool None() const { return !Any(); }

  bool operator==(const Bitmap& other) const {
    return num_bits_ == other.num_bits_ &&
           std::equal(words(), words() + num_words(), other.words());
  }

  /// Copies bits [offset, offset+chunk.size()) from `chunk` into this bitmap.
  /// Used to assemble a full block bitmap from partitioned sub-entries.
  void CopyChunk(size_t offset, const Bitmap& chunk) {
    GECKO_CHECK_LE(offset + chunk.size(), num_bits_);
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (chunk.Test(i)) Set(offset + i);
    }
  }

  /// Returns bits [offset, offset+len) as a new bitmap.
  Bitmap ExtractChunk(size_t offset, size_t len) const {
    GECKO_CHECK_LE(offset + len, num_bits_);
    Bitmap out(len);
    for (size_t i = 0; i < len; ++i) {
      if (Test(offset + i)) out.Set(i);
    }
    return out;
  }

  std::string DebugString() const {
    std::string s;
    s.reserve(num_bits_);
    for (size_t i = 0; i < num_bits_; ++i) s.push_back(Test(i) ? '1' : '0');
    return s;
  }

 private:
  static constexpr size_t kInlineWords = kInlineBits / 64;

  size_t num_words() const { return (num_bits_ + 63) / 64; }
  bool inline_storage() const { return num_bits_ <= kInlineBits; }
  uint64_t* words() { return inline_storage() ? words_.local : words_.heap; }
  const uint64_t* words() const {
    return inline_storage() ? words_.local : words_.heap;
  }

  size_t num_bits_;
  /// The inline words, or the heap array once num_bits_ > kInlineBits.
  /// Trivially copyable, so moves and swaps copy it whole.
  union Words {
    uint64_t local[kInlineWords];
    uint64_t* heap;
  } words_{};
};

}  // namespace gecko

#endif  // GECKOFTL_UTIL_BITMAP_H_
