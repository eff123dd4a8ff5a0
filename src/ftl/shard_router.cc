#include "ftl/shard_router.h"

#include <limits>
#include <utility>

namespace gecko {
namespace {

constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

/// Makes the next sub slot live for `shard`: emptied, capacity kept.
void TakeSub(SplitRequest* split, uint32_t shard, IoOp op) {
  SplitRequest::Sub& sub = split->subs[split->num_subs++];
  sub.shard = shard;
  sub.request.op = op;
  sub.request.extents.clear();
  sub.extent_of.clear();
}

}  // namespace

void ShardRouter::Split(const IoRequest& request, SplitRequest* split) const {
  split->op = request.op;
  split->original_extents = request.extents.size();
  split->unrouted.clear();
  split->num_subs = 0;
  if (split->subs.size() < map_.num_shards) split->subs.resize(map_.num_shards);

  if (request.op == IoOp::kFlush) {
    // The cross-shard barrier: every shard flushes; the rendezvous join
    // in the sharded FTL completes the host flush only when all have.
    for (uint32_t s = 0; s < map_.num_shards; ++s) {
      TakeSub(split, s, IoOp::kFlush);
    }
    return;
  }

  // Dense sub-request slots, one per touched shard, in the order the
  // request first touches each shard.
  split->slot_of_shard.assign(map_.num_shards, kNoSlot);
  for (size_t i = 0; i < request.extents.size(); ++i) {
    const IoExtent& extent = request.extents[i];
    if (map_.num_shards > 1 && extent.lpn >= map_.TotalLpns()) {
      // Beyond the aggregate capacity: resolved here, exactly like the
      // unsharded FTL's own out-of-range check (extent skipped).
      split->unrouted.emplace_back(
          i, Status::InvalidArgument("lpn beyond sharded capacity"));
      continue;
    }
    const uint32_t shard = map_.ShardOf(extent.lpn);
    uint32_t& slot = split->slot_of_shard[shard];
    if (slot == kNoSlot) {
      slot = static_cast<uint32_t>(split->num_subs);
      TakeSub(split, shard, request.op);
    }
    SplitRequest::Sub& sub = split->subs[slot];
    sub.request.extents.push_back(
        IoExtent{map_.LocalLpn(extent.lpn), extent.payload});
    sub.extent_of.push_back(i);
  }
}

void ShardRouter::Join(const SplitRequest& split,
                       const std::vector<IoResult>& sub_results,
                       IoResult* out) {
  GECKO_CHECK_GE(sub_results.size(), split.num_subs);
  out->status = Status::Ok();
  out->extent_status.assign(split.original_extents, Status::Ok());
  out->payloads.clear();
  if (split.op == IoOp::kRead) {
    out->payloads.assign(split.original_extents, 0);
  }
  for (const auto& [index, status] : split.unrouted) {
    out->extent_status[index] = status;
  }
  for (size_t s = 0; s < split.num_subs; ++s) {
    const SplitRequest::Sub& sub = split.subs[s];
    const IoResult& r = sub_results[s];
    if (!r.status.ok()) {
      // A sub-request that failed (or was aborted) as a whole: the host
      // request is indeterminate, like an NVMe command at reset.
      out->status = r.status;
    }
    for (size_t j = 0; j < sub.extent_of.size(); ++j) {
      size_t original = sub.extent_of[j];
      if (j < r.extent_status.size()) {
        out->extent_status[original] = r.extent_status[j];
      } else if (!r.status.ok()) {
        out->extent_status[original] = r.status;
      }
      if (split.op == IoOp::kRead && j < r.payloads.size()) {
        out->payloads[original] = r.payloads[j];
      }
    }
  }
}

}  // namespace gecko
