// Shard-router unit tests: striping math round-trips, split/join
// exactness against a direct per-extent model, the kFlush fan-out, and
// reuse of one SplitRequest across requests of different shapes.

#include "ftl/shard_router.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace gecko {
namespace {

ShardMap MakeMap(uint32_t shards, uint64_t chunk, uint64_t per_shard) {
  ShardMap map;
  map.num_shards = shards;
  map.chunk_lpns = chunk;
  map.lpns_per_shard = per_shard;
  return map;
}

TEST(ShardMapTest, SingleShardIsIdentity) {
  ShardMap map = MakeMap(1, 128, 1000);
  for (Lpn lpn = 0; lpn < 1000; ++lpn) {
    EXPECT_EQ(map.ShardOf(lpn), 0u);
    EXPECT_EQ(map.LocalLpn(lpn), lpn);
  }
}

TEST(ShardMapTest, RoundTripsEveryLpn) {
  for (uint32_t shards : {2u, 3u, 4u, 8u}) {
    ShardMap map = MakeMap(shards, 16, 64);
    for (Lpn lpn = 0; lpn < map.TotalLpns(); ++lpn) {
      uint32_t shard = map.ShardOf(lpn);
      Lpn local = map.LocalLpn(lpn);
      ASSERT_LT(shard, shards);
      ASSERT_LT(local, map.lpns_per_shard) << "lpn " << lpn;
      ASSERT_EQ(map.GlobalLpn(shard, local), lpn);
    }
  }
}

TEST(ShardMapTest, ChunksStayIntactAndStripeRoundRobin) {
  ShardMap map = MakeMap(4, 8, 32);
  for (Lpn lpn = 0; lpn < map.TotalLpns(); ++lpn) {
    // All lpns of one chunk land on the same shard...
    EXPECT_EQ(map.ShardOf(lpn), (lpn / 8) % 4);
    // ...at chunk-contiguous local addresses.
    EXPECT_EQ(map.LocalLpn(lpn) % 8, lpn % 8);
  }
}

TEST(ShardRouterTest, SplitPartitionsExtentsExactly) {
  ShardRouter router(MakeMap(4, 8, 32));
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    IoRequest request(round % 2 == 0 ? IoOp::kWrite : IoOp::kRead);
    int n = 1 + static_cast<int>(rng.Uniform(12));
    for (int i = 0; i < n; ++i) {
      request.Add(static_cast<Lpn>(rng.Uniform(128)), 1000 + i);
    }
    SplitRequest split;
    router.Split(request, &split);
    EXPECT_TRUE(split.unrouted.empty());
    EXPECT_EQ(split.original_extents, request.extents.size());
    // Every extent appears in exactly one sub, on the right shard, with
    // the right local lpn and payload.
    std::vector<int> seen(request.extents.size(), 0);
    for (size_t s = 0; s < split.num_subs; ++s) {
      const SplitRequest::Sub& sub = split.subs[s];
      ASSERT_EQ(sub.request.op, request.op);
      ASSERT_EQ(sub.request.extents.size(), sub.extent_of.size());
      for (size_t j = 0; j < sub.extent_of.size(); ++j) {
        size_t original = sub.extent_of[j];
        ASSERT_LT(original, request.extents.size());
        ++seen[original];
        const IoExtent& want = request.extents[original];
        EXPECT_EQ(sub.shard, router.map().ShardOf(want.lpn));
        EXPECT_EQ(sub.request.extents[j].lpn, router.map().LocalLpn(want.lpn));
        EXPECT_EQ(sub.request.extents[j].payload, want.payload);
      }
    }
    for (int count : seen) EXPECT_EQ(count, 1);
  }
}

TEST(ShardRouterTest, FlushFansOutToEveryShard) {
  ShardRouter router(MakeMap(4, 8, 32));
  SplitRequest split;
  router.Split(IoRequest::Flush(), &split);
  ASSERT_EQ(split.num_subs, 4u);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(split.subs[s].shard, s);
    EXPECT_EQ(split.subs[s].request.op, IoOp::kFlush);
    EXPECT_TRUE(split.subs[s].request.extents.empty());
  }
}

TEST(ShardRouterTest, OutOfRangeExtentsAreResolvedUnrouted) {
  ShardRouter router(MakeMap(2, 8, 32));  // capacity 64
  IoRequest request(IoOp::kWrite);
  request.Add(5, 1).Add(64, 2).Add(40, 3).Add(1000, 4);
  SplitRequest split;
  router.Split(request, &split);
  ASSERT_EQ(split.unrouted.size(), 2u);
  EXPECT_EQ(split.unrouted[0].first, 1u);
  EXPECT_EQ(split.unrouted[1].first, 3u);
  size_t routed = 0;
  for (size_t s = 0; s < split.num_subs; ++s) {
    routed += split.subs[s].request.extents.size();
  }
  EXPECT_EQ(routed, 2u);

  // Join scatters the pre-resolved statuses into place.
  std::vector<IoResult> sub_results(split.num_subs);
  for (size_t s = 0; s < split.num_subs; ++s) {
    sub_results[s].extent_status.assign(split.subs[s].request.extents.size(),
                                        Status::Ok());
  }
  IoResult out;
  ShardRouter::Join(split, sub_results, &out);
  EXPECT_TRUE(out.status.ok());
  ASSERT_EQ(out.extent_status.size(), 4u);
  EXPECT_TRUE(out.extent_status[0].ok());
  EXPECT_EQ(out.extent_status[1].code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.extent_status[2].ok());
  EXPECT_EQ(out.extent_status[3].code(), StatusCode::kInvalidArgument);
}

TEST(ShardRouterTest, JoinScattersStatusesAndPayloadsToHostOrder) {
  ShardRouter router(MakeMap(2, 4, 16));
  IoRequest request(IoOp::kRead);
  // Shards: lpn/4 % 2 -> 0:[0..3], 1:[4..7], 0:[8..11], ...
  request.Add(0).Add(4).Add(8).Add(5);
  SplitRequest split;
  router.Split(request, &split);
  ASSERT_EQ(split.num_subs, 2u);

  std::vector<IoResult> sub_results(2);
  for (size_t s = 0; s < 2; ++s) {
    const SplitRequest::Sub& sub = split.subs[s];
    for (size_t j = 0; j < sub.extent_of.size(); ++j) {
      size_t original = sub.extent_of[j];
      if (original == 3) {
        sub_results[s].extent_status.push_back(Status::NotFound("x"));
        sub_results[s].payloads.push_back(0);
      } else {
        sub_results[s].extent_status.push_back(Status::Ok());
        sub_results[s].payloads.push_back(100 + original);
      }
    }
  }
  IoResult out;
  ShardRouter::Join(split, sub_results, &out);
  EXPECT_TRUE(out.status.ok());
  ASSERT_EQ(out.extent_status.size(), 4u);
  ASSERT_EQ(out.payloads.size(), 4u);
  EXPECT_EQ(out.payloads[0], 100u);
  EXPECT_EQ(out.payloads[1], 101u);
  EXPECT_EQ(out.payloads[2], 102u);
  EXPECT_EQ(out.extent_status[3].code(), StatusCode::kNotFound);
}

void ExpectSameSplit(const SplitRequest& got, const SplitRequest& want) {
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.original_extents, want.original_extents);
  ASSERT_EQ(got.num_subs, want.num_subs);
  for (size_t s = 0; s < want.num_subs; ++s) {
    const SplitRequest::Sub& g = got.subs[s];
    const SplitRequest::Sub& w = want.subs[s];
    EXPECT_EQ(g.shard, w.shard);
    EXPECT_EQ(g.request.op, w.request.op);
    EXPECT_EQ(g.extent_of, w.extent_of);
    ASSERT_EQ(g.request.extents.size(), w.request.extents.size());
    for (size_t j = 0; j < w.request.extents.size(); ++j) {
      EXPECT_EQ(g.request.extents[j].lpn, w.request.extents[j].lpn);
      EXPECT_EQ(g.request.extents[j].payload, w.request.extents[j].payload);
    }
  }
  ASSERT_EQ(got.unrouted.size(), want.unrouted.size());
  for (size_t u = 0; u < want.unrouted.size(); ++u) {
    EXPECT_EQ(got.unrouted[u].first, want.unrouted[u].first);
  }
}

// One SplitRequest refilled by requests of different shapes: nothing of an
// earlier split (sub, extent, extent index or unrouted entry) survives
// into a later one, and Join ignores the stale subs past num_subs.
TEST(ShardRouterTest, ReusedSplitKeepsNoStaleState) {
  ShardRouter router(MakeMap(4, 8, 32));  // shard = (lpn / 8) % 4
  IoRequest wide(IoOp::kRead);
  wide.Add(0).Add(8).Add(16).Add(24).Add(500);  // shards 0-3, out of range
  IoRequest narrow(IoOp::kRead);
  narrow.Add(17).Add(49).Add(18).Add(81);  // all on shard 2

  SplitRequest split;
  router.Split(wide, &split);
  ASSERT_EQ(split.num_subs, 4u);
  ASSERT_EQ(split.unrouted.size(), 1u);

  router.Split(narrow, &split);
  SplitRequest fresh;
  router.Split(narrow, &fresh);
  ExpectSameSplit(split, fresh);
  ASSERT_EQ(split.num_subs, 1u);
  EXPECT_EQ(split.subs[0].shard, 2u);
  EXPECT_EQ(split.subs[0].extent_of, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(split.unrouted.empty());

  // The stale slots past num_subs carry failures; Join must not read them.
  std::vector<IoResult> sub_results(split.subs.size());
  for (size_t s = 0; s < sub_results.size(); ++s) {
    if (s < split.num_subs) {
      sub_results[s].extent_status.assign(4, Status::Ok());
      sub_results[s].payloads = {10, 11, 12, 13};
    } else {
      sub_results[s].status = Status::Aborted("stale");
      sub_results[s].extent_status = {Status::IoError("stale")};
      sub_results[s].payloads = {99};
    }
  }
  IoResult out;
  ShardRouter::Join(split, sub_results, &out);
  EXPECT_TRUE(out.AllOk()) << out.FirstError().ToString();
  EXPECT_EQ(out.extent_status.size(), 4u);
  EXPECT_EQ(out.payloads, (std::vector<uint64_t>{10, 11, 12, 13}));

  router.Split(IoRequest::Flush(), &split);
  ASSERT_EQ(split.num_subs, 4u);
  EXPECT_EQ(split.original_extents, 0u);
  EXPECT_TRUE(split.unrouted.empty());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(split.subs[s].shard, s);
    EXPECT_EQ(split.subs[s].request.op, IoOp::kFlush);
    EXPECT_TRUE(split.subs[s].request.extents.empty());
    EXPECT_TRUE(split.subs[s].extent_of.empty());
  }

  router.Split(wide, &split);
  SplitRequest fresh_wide;
  router.Split(wide, &fresh_wide);
  ExpectSameSplit(split, fresh_wide);
}

TEST(ShardRouterTest, AbortedSubPropagatesToWholeStatus) {
  ShardRouter router(MakeMap(2, 4, 16));
  IoRequest request(IoOp::kWrite);
  request.Add(0, 1).Add(4, 2);
  SplitRequest split;
  router.Split(request, &split);
  ASSERT_EQ(split.num_subs, 2u);
  std::vector<IoResult> sub_results(2);
  sub_results[0].extent_status = {Status::Ok()};
  sub_results[1].status = Status::Aborted("power failure");
  sub_results[1].extent_status = {Status::Aborted("power failure")};
  IoResult out;
  ShardRouter::Join(split, sub_results, &out);
  EXPECT_EQ(out.status.code(), StatusCode::kAborted);
  EXPECT_TRUE(out.extent_status[split.subs[0].extent_of[0]].ok());
  EXPECT_EQ(out.extent_status[split.subs[1].extent_of[0]].code(),
            StatusCode::kAborted);
}

}  // namespace
}  // namespace gecko
