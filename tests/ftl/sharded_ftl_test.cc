// Sharded front-end tests over all five FTLs: single-shard bit-identical
// equivalence with the unsharded FTL, multi-shard shadow-model integrity,
// cross-shard flush-barrier ordering, crash-during-fan-out abort
// accounting, submit-time stamping, and concurrent submitters (the suite
// the TSan CI job races); and, over a trivial in-RAM inner FTL, that a
// warm front end allocates nothing per request.

#include "ftl/sharded_ftl.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"

// Counts every heap allocation of this test binary, on every thread, so a
// case can check that the front end's steady state allocates nothing. Not
// inlined, so the compiler does not pair a new-expression with the free()
// inside.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

FtlFactory FactoryFor(const std::string& name) {
  return [name](FlashDevice* device, const FtlConfig& config) {
    return MakeFtl(name, device, config);
  };
}

/// Param: FTL name.
class ShardedFtlTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::string FtlName() const { return GetParam(); }

  std::unique_ptr<ShardedFtl> MakeSharded(uint32_t num_shards,
                                          uint32_t total_channels = 4,
                                          uint32_t cache_per_shard = 64) {
    ShardedFtlOptions options;
    options.geometry = FtlTestGeometry(total_channels);
    options.num_shards = num_shards;
    options.config = DefaultFtlConfig(FtlName(), cache_per_shard);
    return std::make_unique<ShardedFtl>(options, FactoryFor(FtlName()));
  }
};

std::string ShardedParamName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllFtls, ShardedFtlTest,
                         ::testing::Values("GeckoFTL", "DFTL", "LazyFTL",
                                           "uFTL", "IB-FTL"),
                         ShardedParamName);

void ExpectSameResult(const IoResult& got, const IoResult& want,
                      const std::string& context) {
  EXPECT_EQ(got.status.code(), want.status.code()) << context;
  ASSERT_EQ(got.extent_status.size(), want.extent_status.size()) << context;
  for (size_t i = 0; i < want.extent_status.size(); ++i) {
    EXPECT_EQ(got.extent_status[i].code(), want.extent_status[i].code())
        << context << " extent " << i;
  }
  ASSERT_EQ(got.payloads.size(), want.payloads.size()) << context;
  for (size_t i = 0; i < want.payloads.size(); ++i) {
    EXPECT_EQ(got.payloads[i], want.payloads[i]) << context << " extent " << i;
  }
}

void ExpectSameCounters(const FtlCounters& got, const FtlCounters& want) {
  for (const FtlCounterField& f : kFtlCounterFields) {
    EXPECT_EQ(got.*f.member, want.*f.member) << f.name;
  }
}

// The tentpole's equivalence gate: with num_shards == 1 the sharded
// front end must be bit-identical to today's unsharded FTL — same
// per-extent results, same counters, same device IO, same recovery.
TEST_P(ShardedFtlTest, SingleShardBitIdenticalToUnsharded) {
  Geometry geometry = FtlTestGeometry(4);
  FlashDevice plain_device(geometry);
  std::unique_ptr<Ftl> plain = MakeFtl(FtlName(), &plain_device, 64);
  std::unique_ptr<ShardedFtl> sharded = MakeSharded(1);

  const uint64_t capacity = geometry.NumLogicalPages();
  Rng rng(123);
  uint64_t version = 0;
  for (int step = 0; step < 500; ++step) {
    uint32_t dice = static_cast<uint32_t>(rng.Uniform(100));
    std::string context = FtlName() + " step " + std::to_string(step);
    if (dice < 55) {
      IoRequest request(IoOp::kWrite);
      int n = 1 + static_cast<int>(rng.Uniform(6));
      for (int i = 0; i < n; ++i) {
        // Occasionally out of range, to compare the rejection path.
        Lpn lpn = static_cast<Lpn>(rng.Uniform(capacity + 8));
        request.Add(lpn, FtlExperiment::Token(lpn, ++version));
      }
      IoRequest copy = request;
      IoResult want, got;
      Status ws = plain->Submit(request, &want);
      Status gs = sharded->Submit(copy, &got);
      EXPECT_EQ(gs.code(), ws.code()) << context;
      ExpectSameResult(got, want, context);
    } else if (dice < 75) {
      IoRequest request(IoOp::kRead);
      int n = 1 + static_cast<int>(rng.Uniform(6));
      for (int i = 0; i < n; ++i) {
        request.Add(static_cast<Lpn>(rng.Uniform(capacity + 8)));
      }
      IoRequest copy = request;
      IoResult want, got;
      Status ws = plain->Submit(request, &want);
      Status gs = sharded->Submit(copy, &got);
      EXPECT_EQ(gs.code(), ws.code()) << context;
      ExpectSameResult(got, want, context);
    } else if (dice < 85) {
      IoRequest request(IoOp::kTrim);
      int n = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < n; ++i) {
        request.Add(static_cast<Lpn>(rng.Uniform(capacity)));
      }
      IoRequest copy = request;
      IoResult want, got;
      Status ws = plain->Submit(request, &want);
      Status gs = sharded->Submit(copy, &got);
      EXPECT_EQ(gs.code(), ws.code()) << context;
      ExpectSameResult(got, want, context);
    } else if (dice < 90) {
      EXPECT_EQ(sharded->Flush().code(), plain->Flush().code()) << context;
    } else if (dice < 96) {
      EXPECT_EQ(sharded->IdleTick(), plain->IdleTick()) << context;
    } else {
      EXPECT_EQ(sharded->ForceGc(), plain->ForceGc()) << context;
    }
  }

  // Malformed requests reject identically (no admission either way).
  IoRequest empty_write(IoOp::kWrite);
  IoResult ignored;
  EXPECT_EQ(sharded->Submit(empty_write, &ignored).code(),
            plain->Submit(empty_write, &ignored).code());

  ExpectSameCounters(sharded->counters(), plain->counters());
  EXPECT_EQ(sharded->RamBytes(), plain->RamBytes());
  const IoStats& plain_stats = plain_device.stats();
  const IoStats& shard_stats = sharded->shard_device(0).stats();
  EXPECT_EQ(shard_stats.counters().DebugString(),
            plain_stats.counters().DebugString());
  EXPECT_DOUBLE_EQ(shard_stats.elapsed_us(), plain_stats.elapsed_us());
  EXPECT_EQ(shard_stats.total_submissions(), plain_stats.total_submissions());
  EXPECT_EQ(shard_stats.max_queue_depth(), plain_stats.max_queue_depth());

  // Crash/recovery is preserved: same per-step recovery costs, and the
  // surviving state reads back identically.
  RecoveryReport want_report = plain->CrashAndRecover();
  RecoveryReport got_report = sharded->CrashAndRecover();
  ASSERT_EQ(got_report.steps.size(), want_report.steps.size());
  for (size_t i = 0; i < want_report.steps.size(); ++i) {
    EXPECT_EQ(got_report.steps[i].name, want_report.steps[i].name);
    EXPECT_EQ(got_report.steps[i].spare_reads,
              want_report.steps[i].spare_reads);
    EXPECT_EQ(got_report.steps[i].page_reads, want_report.steps[i].page_reads);
    EXPECT_EQ(got_report.steps[i].page_writes,
              want_report.steps[i].page_writes);
  }
  for (Lpn lpn = 0; lpn < capacity; ++lpn) {
    uint64_t want_payload = 0, got_payload = 0;
    Status ws = plain->Read(lpn, &want_payload);
    Status gs = sharded->Read(lpn, &got_payload);
    ASSERT_EQ(gs.code(), ws.code()) << "post-recovery lpn " << lpn;
    ASSERT_EQ(got_payload, want_payload) << "post-recovery lpn " << lpn;
  }
}

// Plain SubmitAsync carries no arrival stamp: the front end stamps the
// request with the earliest shard clock at which one of its subs started.
// After a prefill that is a real device time, and with one shard it is
// exactly the unsharded engine's admission time for the same request.
TEST_P(ShardedFtlTest, SubmitAsyncStampsSubmitTimeFromShardClock) {
  auto prefill = [](Ftl& ftl) {
    for (Lpn base = 0; base < 512; base += 8) {
      IoRequest request(IoOp::kWrite);
      for (Lpn lpn = base; lpn < base + 8; ++lpn) request.Add(lpn, lpn + 1);
      IoResult result;
      ASSERT_TRUE(ftl.Submit(request, &result).ok());
      ASSERT_TRUE(result.AllOk()) << result.FirstError().ToString();
    }
  };
  auto submit_async = [](Ftl& ftl) {
    IoRequest request(IoOp::kWrite);
    for (Lpn lpn : {3, 200, 400, 600}) request.Add(lpn, 7 * lpn);
    AsyncCompletion done;
    Status s = ftl.SubmitAsync(
        std::move(request),
        [&done](const IoResult& result, const AsyncCompletion& completion) {
          EXPECT_TRUE(result.AllOk()) << result.FirstError().ToString();
          done = completion;
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
    ftl.DrainAsync();  // happens-after the callback
    return done;
  };

  FlashDevice plain_device(FtlTestGeometry(4));
  std::unique_ptr<Ftl> plain = MakeFtl(FtlName(), &plain_device, 64);
  std::unique_ptr<ShardedFtl> one = MakeSharded(1);
  std::unique_ptr<ShardedFtl> four = MakeSharded(4);
  prefill(*plain);
  prefill(*one);
  prefill(*four);

  AsyncCompletion sharded = submit_async(*four);
  EXPECT_GT(sharded.submit_us, 0.0);
  EXPECT_LE(sharded.submit_us, sharded.complete_us);

  AsyncCompletion want = submit_async(*plain);
  AsyncCompletion got = submit_async(*one);
  EXPECT_GT(want.submit_us, 0.0);
  EXPECT_EQ(got.submit_us, want.submit_us);
  EXPECT_EQ(got.complete_us, want.complete_us);
}

// Multi-shard data integrity against the shadow model: the sharded FTL
// is just an Ftl, so the standard harness drives it end to end.
TEST_P(ShardedFtlTest, MultiShardShadowIntegrity) {
  std::unique_ptr<ShardedFtl> sharded = MakeSharded(4);
  const uint64_t capacity = sharded->shard_map().TotalLpns();
  ShadowHarness harness(sharded.get(), capacity);
  Rng rng(99);
  for (int round = 0; round < 120; ++round) {
    std::vector<Lpn> lpns;
    int n = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < n; ++i) {
      lpns.push_back(static_cast<Lpn>(rng.Uniform(capacity)));
    }
    if (round % 7 == 3) {
      harness.TrimBatch(lpns);
    } else {
      harness.WriteBatch(lpns);
    }
    if (round % 25 == 10) {
      ASSERT_TRUE(sharded->Flush().ok());
    }
    if (round % 40 == 20) sharded->IdleTick();
  }
  harness.VerifyAll();
  harness.VerifyAbsent(capacity);

  // Reads beyond the sharded capacity are rejected by the router with
  // the same per-extent status the FTL itself would produce.
  uint64_t payload = 0;
  EXPECT_EQ(sharded->Read(capacity, &payload).code(),
            StatusCode::kInvalidArgument);
}

// Cross-shard flush barrier: Flush() returns only after every shard has
// serviced its flush sub, and per-producer FIFO means every write this
// thread fanned out earlier is serviced first — so everything written
// before the flush survives a crash right after it.
TEST_P(ShardedFtlTest, FlushBarrierMakesPriorWritesDurable) {
  std::unique_ptr<ShardedFtl> sharded = MakeSharded(4);
  const uint64_t capacity = sharded->shard_map().TotalLpns();

  std::vector<std::pair<Lpn, uint64_t>> written;
  Rng rng(7);
  std::atomic<uint64_t> callbacks{0};
  for (int i = 0; i < 64; ++i) {
    IoRequest request(IoOp::kWrite);
    for (int j = 0; j < 4; ++j) {
      Lpn lpn = static_cast<Lpn>(rng.Uniform(capacity));
      uint64_t token = FtlExperiment::Token(lpn, 1000 + i * 8 + j);
      request.Add(lpn, token);
      written.emplace_back(lpn, token);
    }
    Status s = sharded->SubmitAsync(
        std::move(request), [&callbacks](const IoResult& result,
                                         const AsyncCompletion&) {
          EXPECT_TRUE(result.status.ok());
          callbacks.fetch_add(1, std::memory_order_relaxed);
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ASSERT_TRUE(sharded->Flush().ok());
  // The barrier implies every prior fan-out completed.
  EXPECT_EQ(callbacks.load(std::memory_order_relaxed), 64u);
  EXPECT_EQ(sharded->InFlightRequests(), 0u);

  sharded->CrashAndRecover();
  // Last writer wins per lpn; replay the shadow of the submission order.
  std::unordered_map<Lpn, uint64_t> expect;
  for (const auto& [lpn, token] : written) expect[lpn] = token;
  for (const auto& [lpn, token] : expect) {
    uint64_t got = 0;
    Status s = sharded->Read(lpn, &got);
    ASSERT_TRUE(s.ok()) << FtlName() << ": lpn " << lpn << " lost after "
                        << "flush barrier + crash: " << s.ToString();
    ASSERT_EQ(got, token) << FtlName() << ": lpn " << lpn;
  }
}

// Crash during fan-out: every queued sub-request aborts exactly once,
// every host request completes exactly once (kAborted when any of its
// subs aborted), and the accounting adds up.
TEST_P(ShardedFtlTest, CrashDuringFanOutAbortsQueuedSubsExactlyOnce) {
  bool saw_aborts = false;
  for (int attempt = 0; attempt < 5 && !saw_aborts; ++attempt) {
    ShardedFtlOptions options;
    options.geometry = FtlTestGeometry(4);
    options.num_shards = 4;
    options.config = DefaultFtlConfig(FtlName(), 64);
    // A 4,096-request cap keeps the queues deep at crash time.
    options.config.async_queue_depth = 4096 / options.num_shards;
    ShardedFtl sharded(options, FactoryFor(FtlName()));
    const uint64_t capacity = sharded.shard_map().TotalLpns();

    constexpr int kRequests = 256;
    std::vector<std::atomic<uint32_t>> fired(kRequests);
    std::atomic<uint64_t> aborted_requests{0};
    Rng rng(31 + attempt);
    for (int i = 0; i < kRequests; ++i) {
      IoRequest request(IoOp::kWrite);
      for (int j = 0; j < 4; ++j) {
        Lpn lpn = static_cast<Lpn>(rng.Uniform(capacity));
        request.Add(lpn, FtlExperiment::Token(lpn, i * 4 + j));
      }
      std::atomic<uint32_t>* slot = &fired[i];
      Status s = sharded.SubmitAsync(
          std::move(request),
          [slot, &aborted_requests](const IoResult& result,
                                    const AsyncCompletion& done) {
            slot->fetch_add(1, std::memory_order_relaxed);
            if (result.status.code() == StatusCode::kAborted) {
              aborted_requests.fetch_add(1, std::memory_order_relaxed);
              EXPECT_EQ(done.complete_us, 0.0);
              // An aborted request still reports every extent: each is
              // either serviced (a sub that ran pre-crash) or kAborted.
              bool any_aborted = false;
              for (const Status& es : result.extent_status) {
                any_aborted =
                    any_aborted || es.code() == StatusCode::kAborted;
              }
              EXPECT_TRUE(any_aborted);
            }
          });
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    sharded.CrashAndRecover();
    sharded.DrainAsync();

    // Exactly-once completion per request, no matter where the crash cut.
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_EQ(fired[i].load(std::memory_order_relaxed), 1u)
          << "request " << i;
    }
    ShardedFtlStats stats = sharded.stats();
    EXPECT_EQ(stats.completed_requests, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.aborted_requests,
              aborted_requests.load(std::memory_order_relaxed));
    EXPECT_LE(stats.aborted_sub_requests, stats.sub_requests);
    saw_aborts = stats.aborted_sub_requests > 0;

    // The recovered FTL still services requests normally.
    ASSERT_TRUE(sharded.Write(0, 42).ok());
    uint64_t payload = 0;
    ASSERT_TRUE(sharded.Read(0, &payload).ok());
    EXPECT_EQ(payload, 42u);
  }
  // With 256 queued fan-outs and an immediate crash, at least one sub
  // should still have been in a queue on some attempt.
  EXPECT_TRUE(saw_aborts);
}

// Concurrent submitters on disjoint lpn ranges: the real-thread path the
// TSan job races. Sync Submit from many threads, then verify integrity.
TEST_P(ShardedFtlTest, ConcurrentSubmittersDisjointRanges) {
  std::unique_ptr<ShardedFtl> sharded = MakeSharded(4);
  const uint64_t capacity = sharded->shard_map().TotalLpns();
  constexpr uint32_t kThreads = 4;
  const uint64_t slice = capacity / kThreads;

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sharded, t, slice] {
      Rng rng(1000 + t);
      const Lpn base = t * slice;
      for (int round = 0; round < 60; ++round) {
        IoRequest request(IoOp::kWrite);
        for (int j = 0; j < 4; ++j) {
          Lpn lpn = base + static_cast<Lpn>(rng.Uniform(slice));
          request.Add(lpn, FtlExperiment::Token(lpn, t * 1000 + round));
        }
        IoResult result;
        Status s = sharded->Submit(request, &result);
        ASSERT_TRUE(s.ok()) << s.ToString();
        // Every extent serviced (last-writer-wins within the batch).
        EXPECT_TRUE(result.AllOk()) << result.FirstError().ToString();
        if (round % 16 == 7) {
          // Read back one lpn this thread just wrote.
          Lpn lpn = request.extents.back().lpn;
          uint64_t payload = 0;
          Status rs = sharded->Read(lpn, &payload);
          ASSERT_TRUE(rs.ok()) << rs.ToString();
          EXPECT_EQ(payload, request.extents.back().payload);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sharded->InFlightRequests(), 0u);
  ShardedFtlStats stats = sharded->stats();
  EXPECT_EQ(stats.completed_requests, stats.requests);
  EXPECT_EQ(stats.aborted_sub_requests, 0u);

  // Merged counters see every thread's extents.
  EXPECT_EQ(sharded->counters().writes,
            static_cast<uint64_t>(kThreads) * 60 * 4);
}

// Per-shard graceful degradation: when one shard's spare blocks run out
// (every erase fails under fault injection), that shard alone goes
// read-only. Its write extents bounce with kOutOfSpace through the normal
// completion path while sibling shards keep accepting writes — a degraded
// shard must never stall the others — and reads verify everywhere.
TEST_P(ShardedFtlTest, DegradedShardFailsWritesWithoutStallingSiblings) {
  ShardedFtlOptions options;
  options.geometry = FtlTestGeometry(4);
  options.num_shards = 2;
  options.config = DefaultFtlConfig(FtlName(), 64);
  options.faults.enabled = true;
  options.faults.seed = FuzzSeed(5501);
  options.faults.erase_fault_rate = 1.0;  // every GC erase retires its block
  GECKO_TRACE_FUZZ_SEED(options.faults.seed);
  auto sharded = std::make_unique<ShardedFtl>(options, FactoryFor(FtlName()));
  const ShardMap& map = sharded->shard_map();

  // A hot set living entirely on shard 0: only shard 0 churns, so only
  // shard 0 retires blocks and degrades.
  std::vector<Lpn> hot;
  for (Lpn g = 0; hot.size() < 64; ++g) {
    if (map.ShardOf(g) == 0) hot.push_back(g);
  }
  Lpn sibling_lpn = 0;
  while (map.ShardOf(sibling_lpn) != 1) ++sibling_lpn;

  std::map<Lpn, uint64_t> shadow;
  uint64_t version = 0;
  bool degraded = false;
  for (int i = 0; i < 30000 && !degraded; ++i) {
    Lpn lpn = hot[i % hot.size()];
    uint64_t token = ++version;
    Status s = sharded->Write(lpn, token);
    if (s.ok()) {
      shadow[lpn] = token;
    } else {
      ASSERT_EQ(s.code(), StatusCode::kOutOfSpace) << s.ToString();
      degraded = true;
    }
  }
  ASSERT_TRUE(degraded) << "shard 0 never exhausted its spares";

  // Quiescent introspection: exactly shard 0 is degraded, and the
  // aggregate view reports it.
  EXPECT_TRUE(sharded->IsDegraded());
  EXPECT_TRUE(sharded->shard_ftl(0).IsDegraded());
  EXPECT_FALSE(sharded->shard_ftl(1).IsDegraded());
  EXPECT_EQ(sharded->counters().degraded_mode, 1u);
  EXPECT_GT(sharded->counters().grown_bad_blocks, 0u);

  // The sibling shard still takes writes.
  ASSERT_TRUE(sharded->Write(sibling_lpn, 777).ok());

  // A batch spanning both shards: the shard-0 extent bounces, the
  // shard-1 extent completes — per-extent statuses, no cross-stall.
  IoRequest request(IoOp::kWrite);
  request.Add(hot[0], 111111);
  request.Add(sibling_lpn, 778);
  IoResult result;
  ASSERT_TRUE(sharded->Submit(request, &result).ok());
  ASSERT_EQ(result.extent_status.size(), 2u);
  EXPECT_EQ(result.extent_status[0].code(), StatusCode::kOutOfSpace);
  EXPECT_TRUE(result.extent_status[1].ok());

  // Read-only service on the degraded shard: the survivors verify.
  for (const auto& [lpn, token] : shadow) {
    uint64_t got = 0;
    Status s = sharded->Read(lpn, &got);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(got, token) << "wrong data for lpn " << lpn;
  }
  uint64_t got = 0;
  ASSERT_TRUE(sharded->Read(sibling_lpn, &got).ok());
  EXPECT_EQ(got, 778u);
}

/// A trivial in-RAM inner FTL: pages in a vector, no flash, results filled
/// in place, so it allocates nothing per request and the front end's own
/// allocations are all that the counter sees. While `gate` is false its
/// worker holds every sub it executes, keeping the request in flight.
class RamFtl : public Ftl {
 public:
  RamFtl(uint64_t lpns, const std::atomic<bool>* gate)
      : pages_(lpns, 0), written_(lpns, false), gate_(gate) {}

  Status Submit(IoRequest& request, IoResult* result) override {
    while (!gate_->load(std::memory_order_acquire)) std::this_thread::yield();
    result->Clear();
    if (request.op == IoOp::kFlush) {
      ++counters_.flushes;
      return Status::Ok();
    }
    const size_t n = request.extents.size();
    result->extent_status.assign(n, Status::Ok());
    if (request.op == IoOp::kRead) result->payloads.assign(n, 0);
    for (size_t j = 0; j < n; ++j) {
      const IoExtent& extent = request.extents[j];
      if (extent.lpn >= pages_.size()) {
        result->extent_status[j] = Status::InvalidArgument("range");
        continue;
      }
      switch (request.op) {
        case IoOp::kWrite:
          pages_[extent.lpn] = extent.payload;
          written_[extent.lpn] = true;
          ++counters_.writes;
          break;
        case IoOp::kRead:
          ++counters_.reads;
          if (written_[extent.lpn]) {
            result->payloads[j] = pages_[extent.lpn];
          } else {
            result->extent_status[j] = Status::NotFound("unwritten");
          }
          break;
        case IoOp::kTrim:
          written_[extent.lpn] = false;
          ++counters_.trims;
          break;
        case IoOp::kFlush:
          break;
      }
    }
    return Status::Ok();
  }
  Status SubmitAsync(IoRequest&&, CompletionCb) override {
    return Status::FailedPrecondition("sync only");
  }
  uint64_t Poll() override { return 0; }
  uint64_t DrainAsync() override { return 0; }
  uint32_t InFlightRequests() const override { return 0; }
  RecoveryReport CrashAndRecover() override { return RecoveryReport(); }
  uint64_t RamBytes() const override { return 0; }
  bool ForceGc() override { return false; }
  const FtlCounters& counters() const override { return counters_; }
  const char* Name() const override { return "RamFtl"; }

 private:
  std::vector<uint64_t> pages_;
  std::vector<bool> written_;
  const std::atomic<bool>* gate_;
  FtlCounters counters_;
};

/// Callback tallies, bumped on worker threads.
struct Tally {
  std::atomic<uint64_t> callbacks{0};
  std::atomic<uint64_t> bad{0};  // whole-request failure or wrong width
};

// A warm front end allocates nothing per request: its request records,
// splits, sub-results, joined results and queue nodes are all reused. The
// pool is warmed to its full depth first (the gate holds `depth` reads in
// flight at once), then 10,000 mixed requests, never more than `depth` in
// flight, must allocate 0 times on any thread. Every non-flush request
// puts two extents on each shard, so one warm-up read per record grows
// every vector it will need.
TEST(ShardedFtlAllocationTest, WarmFrontEndAllocatesNothing) {
  for (uint32_t num_shards : {2u, 4u}) {
    SCOPED_TRACE("num_shards " + std::to_string(num_shards));
    std::atomic<bool> gate{true};
    ShardedFtlOptions options;
    options.geometry = FtlTestGeometry(4);
    options.num_shards = num_shards;
    options.config.async_queue_depth = 4;
    const uint32_t depth = num_shards * options.config.async_queue_depth;
    ShardedFtl sharded(options, [&gate](FlashDevice* device, const FtlConfig&) {
      return std::make_unique<RamFtl>(device->geometry().NumLogicalPages(),
                                      &gate);
    });
    const ShardMap& map = sharded.shard_map();
    const size_t width = 2 * num_shards;

    Rng rng(43 + num_shards);
    auto make_request = [&](IoOp op) {
      IoRequest request(op);
      if (op == IoOp::kFlush) return request;
      for (uint32_t k = 0; k < width; ++k) {
        const Lpn local = rng.Uniform(map.lpns_per_shard);
        request.Add(map.GlobalLpn(k % num_shards, local),
                    rng.Uniform(1u << 20));
      }
      // Shuffled, so the shards' first-touch order (their sub slots)
      // changes from request to request.
      for (size_t k = width; k > 1; --k) {
        std::swap(request.extents[k - 1],
                  request.extents[rng.Uniform(k)]);
      }
      return request;
    };
    std::vector<IoRequest> requests;
    const IoOp kOps[] = {IoOp::kWrite, IoOp::kWrite, IoOp::kRead,
                         IoOp::kRead,  IoOp::kRead,  IoOp::kTrim,
                         IoOp::kFlush};
    for (int i = 0; i < 10000; ++i) {
      requests.push_back(make_request(kOps[rng.Uniform(7)]));
    }
    IoRequest warm_read = make_request(IoOp::kRead);

    Tally tally;
    auto on_complete = [tally_ptr = &tally, width](const IoResult& result,
                                                   const AsyncCompletion&) {
      const bool flush = result.extent_status.empty();
      if (!result.status.ok() ||
          (!flush && result.extent_status.size() != width)) {
        tally_ptr->bad.fetch_add(1, std::memory_order_relaxed);
      }
      tally_ptr->callbacks.fetch_add(1, std::memory_order_relaxed);
    };
    IoRequest scratch;
    IoResult sync_result;

    // Warm-up: with the gate shut no sub completes, so `depth` async reads
    // hold `depth` records at once; a sync read warms `sync_result`. (No
    // ASSERT while the gate is shut: the destructor would wait forever.)
    gate.store(false, std::memory_order_release);
    for (uint32_t i = 0; i < depth; ++i) {
      scratch = warm_read;
      EXPECT_TRUE(sharded.SubmitAsync(std::move(scratch), on_complete).ok());
    }
    gate.store(true, std::memory_order_release);
    sharded.DrainAsync();
    ASSERT_TRUE(sharded.Submit(warm_read, &sync_result).ok());
    scratch = warm_read;
    uint64_t async_submitted = depth;

    const uint64_t before = g_allocations.load();
    for (size_t i = 0; i < requests.size(); ++i) {
      while (sharded.InFlightRequests() >= depth) std::this_thread::yield();
      IoRequest& request = requests[i];
      if (i % 9 == 4) {
        ASSERT_TRUE(sharded.Submit(request, &sync_result).ok());
        EXPECT_EQ(sync_result.extent_status.size(), request.extents.size());
        continue;
      }
      scratch.op = request.op;
      scratch.extents.assign(request.extents.begin(), request.extents.end());
      Status s = i % 5 == 0 ? sharded.SubmitAsyncAt(std::move(scratch),
                                                    static_cast<double>(i),
                                                    on_complete)
                            : sharded.SubmitAsync(std::move(scratch),
                                                  on_complete);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ++async_submitted;
    }
    sharded.DrainAsync();
    EXPECT_EQ(g_allocations.load() - before, 0u);

    EXPECT_EQ(tally.callbacks.load(), async_submitted);
    EXPECT_EQ(tally.bad.load(), 0u);
    EXPECT_EQ(sharded.stats().completed_requests,
              requests.size() + depth + 1);
  }
}

}  // namespace
}  // namespace gecko
