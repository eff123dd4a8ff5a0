// Cross-implementation property test: every page-validity store must agree
// with an exact bitmap oracle under random interleavings of updates,
// erases, and GC queries — the contract the FTLs depend on.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "flash/simple_allocator.h"
#include "pvm/flash_pvb.h"
#include "pvm/gecko_store.h"
#include "pvm/pvl.h"
#include "pvm/ram_pvb.h"
#include "util/random.h"

namespace gecko {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 48;
  g.pages_per_block = 16;
  g.page_bytes = 256;
  g.logical_ratio = 0.7;
  return g;
}

constexpr uint32_t kUserBlocks = 24;

struct StoreFixture {
  FlashDevice device{SmallGeometry()};
  std::unique_ptr<SimpleAllocator> allocator;
  std::unique_ptr<PageValidityStore> store;
};

std::unique_ptr<StoreFixture> MakeStore(const std::string& kind) {
  auto f = std::make_unique<StoreFixture>();
  const Geometry g = SmallGeometry();
  f->allocator = std::make_unique<SimpleAllocator>(
      &f->device, kUserBlocks, g.num_blocks - kUserBlocks);
  if (kind == "ram-pvb") {
    f->store = std::make_unique<RamPvb>(g);
  } else if (kind == "flash-pvb") {
    f->store = std::make_unique<FlashPvb>(g, &f->device, f->allocator.get());
  } else if (kind == "pvl") {
    f->store =
        std::make_unique<PageValidityLog>(g, &f->device, f->allocator.get());
  } else {
    f->store = std::make_unique<GeckoStore>(g, LogGeckoConfig{}, &f->device,
                                            f->allocator.get());
  }
  return f;
}

class StorePropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StorePropertyTest, AgreesWithOracle) {
  auto fixture = MakeStore(GetParam());
  PageValidityStore& store = *fixture->store;
  const Geometry g = SmallGeometry();

  // Gecko's buffer holds one entry per block here and would never fill:
  // flush it now and then, so queries read runs on flash and runs merge.
  auto* gecko = dynamic_cast<GeckoStore*>(&store);
  std::vector<Bitmap> oracle;
  for (uint32_t b = 0; b < kUserBlocks; ++b) {
    oracle.emplace_back(g.pages_per_block);
  }
  Rng rng(2024);
  for (int op = 0; op < 8000; ++op) {
    if (gecko != nullptr && op % 250 == 249) gecko->gecko().Flush();
    BlockId block = static_cast<BlockId>(rng.Uniform(kUserBlocks));
    uint32_t dice = static_cast<uint32_t>(rng.Uniform(100));
    if (dice < 78) {
      uint32_t page = static_cast<uint32_t>(rng.Uniform(g.pages_per_block));
      if (oracle[block].Test(page)) continue;
      oracle[block].Set(page);
      store.RecordInvalidPage({block, page});
    } else if (dice < 86) {
      store.RecordErase(block);
      oracle[block].Reset();
    } else {
      Bitmap got = store.QueryInvalidPages(block);
      ASSERT_TRUE(got == oracle[block])
          << store.Name() << " op " << op << " block " << block;
    }
  }
  for (BlockId b = 0; b < kUserBlocks; ++b) {
    ASSERT_TRUE(store.QueryInvalidPages(b) == oracle[b])
        << store.Name() << " final, block " << b;
  }
  if (gecko != nullptr) {
    const LogGeckoStats& stats = gecko->gecko().stats();
    EXPECT_GT(stats.flush_writes, 0u);
    EXPECT_GT(stats.merges, 0u);
    EXPECT_GT(stats.query_reads, 0u);
  }
}

// Greedy GC of a metadata block relocates every live page on it: moving
// all of them must leave every GC query unchanged. The RAM PVB has no
// flash pages to move.
TEST_P(StorePropertyTest, RelocatingEveryLivePageKeepsQueries) {
  auto fixture = MakeStore(GetParam());
  PageValidityStore& store = *fixture->store;
  const Geometry g = SmallGeometry();

  // Gecko's buffer holds one entry per block here and would never fill:
  // flush it now and then, so runs (and merges) reach flash.
  auto* gecko = dynamic_cast<GeckoStore*>(&store);
  std::vector<Bitmap> oracle(kUserBlocks, Bitmap(g.pages_per_block));
  Rng rng(77);
  for (int op = 0; op < 3000; ++op) {
    if (gecko != nullptr && op % 250 == 249) gecko->gecko().Flush();
    BlockId block = static_cast<BlockId>(rng.Uniform(kUserBlocks));
    if (rng.Uniform(100) < 90) {
      uint32_t page = static_cast<uint32_t>(rng.Uniform(g.pages_per_block));
      if (oracle[block].Test(page)) continue;
      oracle[block].Set(page);
      store.RecordInvalidPage({block, page});
    } else {
      store.RecordErase(block);
      oracle[block].Reset();
    }
  }
  // Every written metadata page, listed before any relocation moves one.
  std::vector<PhysicalAddress> written;
  for (BlockId b : fixture->allocator->NonFreeBlocks()) {
    for (uint32_t p = 0; p < g.pages_per_block; ++p) {
      if (fixture->device.IsWritten({b, p})) written.push_back({b, p});
    }
  }
  uint32_t relocated = 0;
  for (PhysicalAddress addr : written) {
    if (store.RelocatePage(addr)) ++relocated;
  }
  EXPECT_EQ(relocated > 0, GetParam() != "ram-pvb") << relocated;
  for (BlockId b = 0; b < kUserBlocks; ++b) {
    ASSERT_TRUE(store.QueryInvalidPages(b) == oracle[b])
        << store.Name() << " block " << b;
  }
}

TEST_P(StorePropertyTest, ReportsPositiveRamFootprint) {
  auto fixture = MakeStore(GetParam());
  EXPECT_GT(fixture->store->RamBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Stores, StorePropertyTest,
                         ::testing::Values("ram-pvb", "flash-pvb", "pvl",
                                           "gecko"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace gecko
