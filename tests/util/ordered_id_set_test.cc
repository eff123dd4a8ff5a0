#include "util/ordered_id_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

namespace gecko {
namespace {

TEST(OrderedIdSetTest, EmptySetHasNoFirst) {
  OrderedIdSet set(100);
  EXPECT_EQ(set.First(), OrderedIdSet::kNone);
  set.Insert(42);
  set.Erase(42);
  EXPECT_EQ(set.First(), OrderedIdSet::kNone);
}

TEST(OrderedIdSetTest, FirstIsTheSmallestMember) {
  OrderedIdSet set(5000);
  set.Insert(4999);
  EXPECT_EQ(set.First(), 4999u);
  set.Insert(70);
  set.Insert(4096);
  EXPECT_EQ(set.First(), 70u);
  set.Erase(70);
  EXPECT_EQ(set.First(), 4096u);
  set.Insert(4096);  // inserting a member again changes nothing
  set.Erase(4096);
  EXPECT_EQ(set.First(), 4999u);
  set.Clear();
  EXPECT_EQ(set.First(), OrderedIdSet::kNone);
}

// Random inserts and erases against std::set, for universes of one, two,
// three and four levels and on both sides of each word boundary.
class OrderedIdSetUniverseTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(OrderedIdSetUniverseTest, MatchesStdSet) {
  const uint32_t universe = GetParam();
  OrderedIdSet set(universe);
  std::set<uint32_t> ref;
  std::mt19937_64 rng(universe);
  // Clustered ids, so members share words and words empty out.
  const uint32_t span = std::min<uint32_t>(universe, 300);
  for (int op = 0; op < 20000; ++op) {
    const uint32_t base = static_cast<uint32_t>(rng() % universe);
    const uint32_t id = std::min(universe - 1, base / span * span +
                                                   static_cast<uint32_t>(
                                                       rng() % span));
    if (rng() % 2 == 0) {
      set.Insert(id);
      ref.insert(id);
    } else {
      set.Erase(id);
      ref.erase(id);
    }
    ASSERT_EQ(set.First(), ref.empty() ? OrderedIdSet::kNone : *ref.begin())
        << "op " << op;
  }
  while (!ref.empty()) {
    set.Erase(*ref.begin());
    ref.erase(ref.begin());
    ASSERT_EQ(set.First(), ref.empty() ? OrderedIdSet::kNone : *ref.begin());
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, OrderedIdSetUniverseTest,
                         ::testing::Values(1u, 63u, 64u, 65u, 4096u, 4097u,
                                           262145u));

}  // namespace
}  // namespace gecko
