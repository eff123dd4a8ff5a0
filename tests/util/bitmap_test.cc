#include "util/bitmap.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <utility>
#include <vector>

#include "core/gecko_entry.h"

// Counts every heap allocation of this test binary, so a test can check
// that an operation allocates nothing. Not inlined, so the compiler does
// not pair a new-expression with the free() inside.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Sanitizer runtimes replace the array forms separately.
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace gecko {
namespace {

/// Heap allocations made while `f` runs.
template <typename F>
uint64_t AllocationsDuring(F&& f) {
  const uint64_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

TEST(BitmapTest, StartsEmpty) {
  Bitmap b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.None());
  EXPECT_FALSE(b.Any());
  for (size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.Test(i));
}

TEST(BitmapTest, SetAndClear) {
  Bitmap b(70);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(69);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(69));
  EXPECT_EQ(b.Count(), 4u);
  b.Clear(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitmapTest, Reset) {
  Bitmap b(128);
  for (size_t i = 0; i < 128; i += 3) b.Set(i);
  ASSERT_GT(b.Count(), 0u);
  b.Reset();
  EXPECT_EQ(b.Count(), 0u);
}

TEST(BitmapTest, OrWithMergesBits) {
  Bitmap a(96), b(96);
  a.Set(1);
  a.Set(65);
  b.Set(2);
  b.Set(65);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(2));
  EXPECT_TRUE(a.Test(65));
  EXPECT_EQ(a.Count(), 3u);
  // The source is unchanged.
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitmapTest, Equality) {
  Bitmap a(32), b(32), c(33);
  a.Set(5);
  b.Set(5);
  EXPECT_TRUE(a == b);
  b.Set(6);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);  // different sizes
}

TEST(BitmapTest, ChunkRoundTrip) {
  Bitmap full(128);
  full.Set(3);
  full.Set(32);
  full.Set(33);
  full.Set(127);
  Bitmap chunk = full.ExtractChunk(32, 32);
  EXPECT_EQ(chunk.size(), 32u);
  EXPECT_TRUE(chunk.Test(0));
  EXPECT_TRUE(chunk.Test(1));
  EXPECT_EQ(chunk.Count(), 2u);

  Bitmap rebuilt(128);
  rebuilt.CopyChunk(32, chunk);
  EXPECT_TRUE(rebuilt.Test(32));
  EXPECT_TRUE(rebuilt.Test(33));
  EXPECT_EQ(rebuilt.Count(), 2u);
}

TEST(BitmapTest, CopyChunkDoesNotClearExistingBits) {
  Bitmap b(64);
  b.Set(10);
  Bitmap chunk(16);
  chunk.Set(0);
  b.CopyChunk(16, chunk);
  EXPECT_TRUE(b.Test(10));
  EXPECT_TRUE(b.Test(16));
}

class BitmapSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitmapSizeTest, CountMatchesReferenceAcrossWordBoundaries) {
  const size_t n = GetParam();
  Bitmap b(n);
  std::mt19937_64 rng(n);
  size_t expected = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rng() % 2 == 0) {
      if (!b.Test(i)) ++expected;
      b.Set(i);
    }
  }
  EXPECT_EQ(b.Count(), expected);
  for (size_t i = 0; i < n; ++i) {
    Bitmap single = b.ExtractChunk(i, 1);
    EXPECT_EQ(single.Test(0), b.Test(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitmapSizeTest,
                         ::testing::Values(1, 7, 63, 64, 65, 100, 128, 129,
                                           255, 1024));

// Sizes on both sides of each word boundary and of the inline capacity
// (128 bits), and one heap size of whole words.
class BitmapBoundaryTest : public ::testing::TestWithParam<size_t> {
 protected:
  /// A bitmap of `n` bits with a seeded random half of them set, and the
  /// same bits as a reference.
  static Bitmap Random(size_t n, uint64_t seed, std::vector<bool>* ref) {
    Bitmap b(n);
    ref->assign(n, false);
    std::mt19937_64 rng(seed);
    for (size_t i = 0; i < n; ++i) {
      if (rng() % 2 == 0) {
        b.Set(i);
        (*ref)[i] = true;
      }
    }
    return b;
  }
  static void ExpectBits(const Bitmap& b, const std::vector<bool>& ref) {
    ASSERT_EQ(b.size(), ref.size());
    size_t count = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(b.Test(i), ref[i]) << "bit " << i << " of " << ref.size();
      count += ref[i];
    }
    EXPECT_EQ(b.Count(), count);
    EXPECT_EQ(b.Any(), count > 0);
  }
};

TEST_P(BitmapBoundaryTest, SetTestClearOrCountAndEquality) {
  const size_t n = GetParam();
  std::vector<bool> ra, rb;
  Bitmap a = Random(n, n, &ra);
  Bitmap b = Random(n, n + 1, &rb);
  ExpectBits(a, ra);
  // The first bit past each word, and the last bit.
  for (size_t i = 64; i < n; i += 64) {
    a.Clear(i);
    ra[i] = false;
  }
  a.Set(n - 1);
  ra[n - 1] = true;
  ExpectBits(a, ra);
  Bitmap same(n);
  for (size_t i = 0; i < n; ++i) {
    if (ra[i]) same.Set(i);
  }
  EXPECT_TRUE(a == same);
  same.Clear(n - 1);
  EXPECT_FALSE(a == same);
  EXPECT_FALSE(a == Bitmap(n + 1));
  a.OrWith(b);
  for (size_t i = 0; i < n; ++i) ra[i] = ra[i] || rb[i];
  ExpectBits(a, ra);
  ExpectBits(b, rb);  // the source is unchanged
  a.Reset();
  EXPECT_TRUE(a.None());
  EXPECT_EQ(a.Count(), 0u);
}

TEST_P(BitmapBoundaryTest, ChunkCopyAndExtractRoundTrip) {
  const size_t n = GetParam();
  std::vector<bool> ref;
  const Bitmap full = Random(n, 3 * n, &ref);
  // Split at every offset that crosses a word, and at n / 2.
  for (size_t cut : {size_t{1}, size_t{63}, size_t{64}, n / 2, n - 1}) {
    if (cut == 0 || cut >= n) continue;
    Bitmap rebuilt(n);
    rebuilt.CopyChunk(0, full.ExtractChunk(0, cut));
    rebuilt.CopyChunk(cut, full.ExtractChunk(cut, n - cut));
    EXPECT_TRUE(rebuilt == full) << "cut " << cut;
    Bitmap tail = full.ExtractChunk(cut, n - cut);
    ExpectBits(tail, std::vector<bool>(ref.begin() + cut, ref.end()));
  }
}

TEST_P(BitmapBoundaryTest, CopyAndMoveAcrossTheInlineBoundary) {
  const size_t n = GetParam();
  std::vector<bool> ref;
  const Bitmap original = Random(n, 5 * n, &ref);
  Bitmap copy(original);
  ExpectBits(copy, ref);
  copy.Set(0);
  EXPECT_EQ(original.Test(0), ref[0]);  // a deep copy
  Bitmap moved(std::move(copy));
  EXPECT_TRUE(moved.Test(0));
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move): defined
  // Assignment between an inline and a heap bitmap, both ways.
  for (size_t other : {size_t{8}, size_t{300}}) {
    std::vector<bool> other_ref;
    Bitmap target = Random(other, other, &other_ref);
    target = original;
    ExpectBits(target, ref);
    Bitmap back = Random(other, other, &other_ref);
    target = back;
    ExpectBits(target, other_ref);
    target = std::move(moved);
    EXPECT_EQ(target.size(), n);
    EXPECT_TRUE(target.Test(0));
    moved = target;
  }
  Bitmap& self = moved;
  moved = self;
  EXPECT_EQ(moved.size(), n);
  EXPECT_TRUE(moved.Test(0));
}

TEST_P(BitmapBoundaryTest, AllocatesOnlyBeyondTheInlineCapacity) {
  const size_t n = GetParam();
  const uint64_t allocations = AllocationsDuring([n] {
    Bitmap a(n);
    a.Set(n - 1);
    Bitmap b(a);
    Bitmap c(n);
    c = b;
    c.OrWith(a);
    Bitmap d(std::move(c));
    d.Reset();
  });
  if (n <= Bitmap::kInlineBits) {
    EXPECT_EQ(allocations, 0u);
  } else {
    EXPECT_GT(allocations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitmapBoundaryTest,
                         ::testing::Values(63, 64, 65, 127, 128, 129, 256));

TEST(BitmapTest, GeckoEntriesOfAtMost128BitsAllocateNothing) {
  const uint64_t allocations = AllocationsDuring([] {
    for (uint32_t bits : {64u, 128u}) {
      GeckoEntry newer(1, bits);
      newer.bits.Set(bits - 1);
      GeckoEntry older(1, bits, /*erased=*/true);
      older.bits.Set(0);
      newer.AbsorbOlder(older);
      GeckoEntry copy = newer;
      GeckoEntry moved = std::move(copy);
      moved = older;
    }
  });
  EXPECT_EQ(allocations, 0u);
}

TEST(BitmapTest, DebugStringShowsBits) {
  Bitmap b(4);
  b.Set(1);
  b.Set(3);
  EXPECT_EQ(b.DebugString(), "0101");
}

}  // namespace
}  // namespace gecko
