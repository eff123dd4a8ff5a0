// Micro-benchmarks (google-benchmark) for the core data structures:
// Logarithmic Gecko updates/queries, the validity-store alternatives, the
// mapping cache, and full-FTL write throughput. These complement the
// figure harnesses with per-operation host-side costs.

#include <benchmark/benchmark.h>

#include <memory>

#include "flash/simple_allocator.h"
#include "ftl/gecko_ftl.h"
#include "ftl/mapping_cache.h"
#include "pvm/flash_pvb.h"
#include "pvm/gecko_store.h"
#include "pvm/ram_pvb.h"
#include "sim/ftl_experiment.h"
#include "workload/workload.h"

namespace gecko {
namespace {

Geometry BenchGeometry() {
  Geometry g;
  g.num_blocks = 1024;
  g.pages_per_block = 64;
  g.page_bytes = 2048;
  g.logical_ratio = 0.7;
  return g;
}

void BM_LogGeckoUpdate(benchmark::State& state) {
  Geometry g = BenchGeometry();
  FlashDevice device(g);
  SimpleAllocator allocator(&device, 0, g.num_blocks);
  LogGeckoConfig cfg;
  cfg.size_ratio = static_cast<uint32_t>(state.range(0));
  cfg.partition_factor = LogGeckoConfig::RecommendedPartitionFactor(g);
  LogGecko gecko(g, cfg, &device, &allocator);
  Rng rng(1);
  std::vector<Bitmap> seen(g.num_blocks);
  for (auto& b : seen) b = Bitmap(g.pages_per_block);
  for (auto _ : state) {
    BlockId block = static_cast<BlockId>(rng.Uniform(g.num_blocks));
    uint32_t page = static_cast<uint32_t>(rng.Uniform(g.pages_per_block));
    if (seen[block].Test(page)) {
      gecko.RecordErase(block);
      seen[block].Reset();
    } else {
      seen[block].Set(page);
      gecko.RecordInvalidPage({block, page});
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogGeckoUpdate)->Arg(2)->Arg(4);

void BM_LogGeckoGcQuery(benchmark::State& state) {
  Geometry g = BenchGeometry();
  FlashDevice device(g);
  SimpleAllocator allocator(&device, 0, g.num_blocks);
  LogGeckoConfig cfg;
  cfg.partition_factor = LogGeckoConfig::RecommendedPartitionFactor(g);
  LogGecko gecko(g, cfg, &device, &allocator);
  Rng rng(2);
  for (int i = 0; i < 50000; ++i) {
    gecko.RecordInvalidPage(
        {static_cast<BlockId>(rng.Uniform(g.num_blocks)),
         static_cast<uint32_t>(rng.Uniform(g.pages_per_block))});
  }
  for (auto _ : state) {
    BlockId block = static_cast<BlockId>(rng.Uniform(g.num_blocks));
    benchmark::DoNotOptimize(gecko.QueryInvalidPages(block));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogGeckoGcQuery);

void BM_StoreUpdate(benchmark::State& state) {
  Geometry g = BenchGeometry();
  FlashDevice device(g);
  SimpleAllocator allocator(&device, 0, g.num_blocks);
  std::unique_ptr<PageValidityStore> store;
  switch (state.range(0)) {
    case 0: store = std::make_unique<RamPvb>(g); break;
    case 1:
      store = std::make_unique<FlashPvb>(g, &device, &allocator);
      break;
    default:
      store = std::make_unique<GeckoStore>(g, LogGeckoConfig{}, &device,
                                           &allocator);
  }
  Rng rng(3);
  std::vector<Bitmap> seen(g.num_blocks);
  for (auto& b : seen) b = Bitmap(g.pages_per_block);
  for (auto _ : state) {
    BlockId block = static_cast<BlockId>(rng.Uniform(g.num_blocks));
    uint32_t page = static_cast<uint32_t>(rng.Uniform(g.pages_per_block));
    if (seen[block].Test(page)) {
      store->RecordErase(block);
      seen[block].Reset();
    } else {
      seen[block].Set(page);
      store->RecordInvalidPage({block, page});
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreUpdate)->Arg(0)->Arg(1)->Arg(2);

void BM_MappingCacheMixed(benchmark::State& state) {
  MappingCache cache(4096, /*page_width=*/512);
  Rng rng(4);
  for (auto _ : state) {
    Lpn lpn = static_cast<Lpn>(rng.Uniform(16384));
    MappingEntry* e = cache.Find(lpn);
    if (e == nullptr) {
      while (cache.NeedsEviction()) cache.Erase(cache.PeekLru());
      cache.Insert(lpn, MappingEntry{PhysicalAddress{lpn % 64, lpn % 16},
                                     false, false, false});
    } else {
      cache.MarkDirty(e);
      e->dirty = false;
      cache.NoteCleaned();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MappingCacheMixed);

void BM_GeckoFtlWrite(benchmark::State& state) {
  Geometry g;
  g.num_blocks = 512;
  g.pages_per_block = 32;
  g.page_bytes = 1024;
  g.logical_ratio = 0.7;
  FlashDevice device(g);
  GeckoFtl ftl(&device, GeckoFtl::DefaultConfig(512));
  FtlExperiment::Fill(ftl, g.NumLogicalPages());
  UniformWorkload workload(g.NumLogicalPages(), 5);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.Write(workload.NextLpn(), ++i));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeckoFtlWrite);

}  // namespace
}  // namespace gecko

BENCHMARK_MAIN();
