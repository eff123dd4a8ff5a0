// LPN-space partitioning for the sharded front end (ftl/sharded_ftl.h).
//
// The logical address space is striped across N shards in fixed-size
// chunks (default: one translation page's worth of LPNs, so the mapping
// entries of one chunk live on one shard's translation page — the LFTL
// partitioning rule that keeps each shard's metadata private to it).
// Global LPN g decomposes as
//
//   chunk      = g / chunk_lpns
//   shard      = chunk % num_shards          (round-robin striping)
//   local lpn  = (chunk / num_shards) * chunk_lpns + g % chunk_lpns
//
// so each shard sees a dense, private local LPN space and no two shards
// ever translate the same page — shared-nothing by construction. With
// num_shards == 1 the map is the identity, which is what makes the
// single-shard configuration bit-identical to an unsharded FTL.
//
// The router is pure address math plus request split/join: Split breaks
// one scatter-gather IoRequest into at most one sub-request per touched
// shard (kFlush fans out to every shard — the cross-shard barrier), and
// Join scatters per-shard results back into the original extent order.
// Both work in place on caller-owned records, so a reused SplitRequest
// and result allocate nothing once their vectors have grown.

#ifndef GECKOFTL_FTL_SHARD_ROUTER_H_
#define GECKOFTL_FTL_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "ftl/io_request.h"
#include "util/check.h"

namespace gecko {

/// The static LPN -> shard ownership map.
struct ShardMap {
  uint32_t num_shards = 1;
  /// Striping unit in LPNs (translation-page-sized by default).
  uint64_t chunk_lpns = 1;
  /// Logical pages per shard (every shard is built the same size).
  uint64_t lpns_per_shard = 0;

  uint32_t ShardOf(Lpn lpn) const {
    return static_cast<uint32_t>((lpn / chunk_lpns) % num_shards);
  }
  Lpn LocalLpn(Lpn lpn) const {
    uint64_t chunk = lpn / chunk_lpns;
    return (chunk / num_shards) * chunk_lpns + lpn % chunk_lpns;
  }
  /// Inverse of (ShardOf, LocalLpn): the global lpn a shard-local page
  /// backs. Round-trips for every lpn < TotalLpns().
  Lpn GlobalLpn(uint32_t shard, Lpn local) const {
    uint64_t chunk = local / chunk_lpns;
    return (chunk * num_shards + shard) * chunk_lpns + local % chunk_lpns;
  }
  /// Aggregate logical capacity exposed by the sharded device.
  uint64_t TotalLpns() const { return uint64_t{num_shards} * lpns_per_shard; }

  void Validate() const {
    GECKO_CHECK_GE(num_shards, 1u);
    GECKO_CHECK_GE(chunk_lpns, 1u);
    GECKO_CHECK_GT(lpns_per_shard, 0u);
  }
};

/// One request split across shards, refilled in place by each Split. The
/// first `num_subs` entries of `subs` are live: one per shard the request
/// actually touches (all of them for kFlush). The rest are left over from
/// earlier splits and keep their vectors' capacity for reuse.
/// `subs[s].extent_of[j]` is the original extent index behind live sub s's
/// extent j, so Join can scatter per-shard statuses/payloads back into
/// host order.
struct SplitRequest {
  struct Sub {
    uint32_t shard = 0;
    IoRequest request;
    std::vector<size_t> extent_of;  // sub extent j -> original extent index
  };
  std::vector<Sub> subs;
  size_t num_subs = 0;
  /// Extents resolved by the router itself (lpn beyond TotalLpns) and
  /// never routed: (original index, status). Empty with num_shards == 1 —
  /// the identity map forwards everything so the inner FTL's own range
  /// check produces bit-identical outcomes.
  std::vector<std::pair<size_t, Status>> unrouted;
  size_t original_extents = 0;
  IoOp op = IoOp::kWrite;
  /// Split's scratch: the live sub slot of each shard.
  std::vector<uint32_t> slot_of_shard;
};

class ShardRouter {
 public:
  explicit ShardRouter(const ShardMap& map) : map_(map) { map_.Validate(); }

  const ShardMap& map() const { return map_; }

  /// Refills `split` with `request`'s per-shard sub-requests, with local
  /// LPNs. kFlush produces one extent-free flush per shard (the barrier).
  void Split(const IoRequest& request, SplitRequest* split) const;

  /// Merges the live subs' results (`sub_results[s]` belongs to
  /// `split.subs[s]`; entries past `split.num_subs` are ignored) into
  /// `out`, parallel to the original request's extents. Payload slots are
  /// filled for kRead only, matching the unsharded servicing path.
  static void Join(const SplitRequest& split,
                   const std::vector<IoResult>& sub_results, IoResult* out);

 private:
  ShardMap map_;
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_SHARD_ROUTER_H_
