#include "pvm/flash_pvb.h"

#include <map>
#include <unordered_map>

namespace gecko {

FlashPvb::FlashPvb(const Geometry& geometry, FlashDevice* device,
                   PageAllocator* allocator)
    : geometry_(geometry), device_(device), allocator_(allocator) {
  // A chunk page holds P*8 validity bits = P*8/B blocks' worth.
  blocks_per_chunk_ = geometry.page_bytes * 8 / geometry.pages_per_block;
  GECKO_CHECK_GE(blocks_per_chunk_, 1u);
  uint32_t num_chunks =
      (geometry.num_blocks + blocks_per_chunk_ - 1) / blocks_per_chunk_;
  chunk_locations_.assign(num_chunks, kNullAddress);
  chunk_bits_.reserve(num_chunks);
  for (uint32_t c = 0; c < num_chunks; ++c) {
    chunk_bits_.emplace_back(blocks_per_chunk_ * geometry.pages_per_block);
  }
}

template <typename Fn>
void FlashPvb::ReadModifyWrite(uint32_t c, Fn mutate) {
  PhysicalAddress old = chunk_locations_[c];
  if (old.IsValid()) {
    device_->ReadPage(old, IoPurpose::kPvm);
  }
  // First write of a chunk needs no prior read (all-zero bitmap).
  mutate(&chunk_bits_[c]);
  // Round-robin placement (no stream): every data write RMWs some chunk,
  // and the chunk population is tiny (one per `blocks_per_chunk_` blocks),
  // so pinning a chunk's versions to one stripe slot would serialize the
  // whole validity pipeline behind a single channel whenever one chunk
  // runs hot — e.g. right after a sequential fill, when most live pages
  // share a few low-numbered chunks. Recovery is placement-agnostic (the
  // spare's key carries the chunk id), so successive versions are free to
  // stripe and concurrent in-flight requests commit chunks in parallel.
  SpareArea spare;
  spare.type = PageType::kPvm;
  spare.key = c;  // chunk id, used by the recovery scan
  spare.aux = 0;
  // A program fault re-places the chunk version transparently.
  PhysicalAddress fresh = AllocateAndProgram(device_, allocator_,
                                             PageType::kPvm, kNoStream, spare,
                                             c, IoPurpose::kPvm)
                              .addr;
  chunk_locations_[c] = fresh;
  if (old.IsValid()) {
    allocator_->OnMetadataPageInvalidated(old);
  }
}

void FlashPvb::RecordInvalidPage(PhysicalAddress addr) {
  GECKO_CHECK_LT(addr.block, geometry_.num_blocks);
  uint32_t c = ChunkOf(addr.block);
  uint32_t bit = BitOffset(addr);
  ReadModifyWrite(c, [&](Bitmap* bits) { bits->Set(bit); });
}

void FlashPvb::RecordInvalidPages(const std::vector<PhysicalAddress>& addrs) {
  // Group the batch by chunk; each touched chunk pays one read-modify-
  // write regardless of how many of its bits the batch sets.
  std::map<uint32_t, std::vector<uint32_t>> by_chunk;
  for (PhysicalAddress addr : addrs) {
    GECKO_CHECK_LT(addr.block, geometry_.num_blocks);
    by_chunk[ChunkOf(addr.block)].push_back(BitOffset(addr));
  }
  for (const auto& [c, bits] : by_chunk) {
    ReadModifyWrite(c, [&](Bitmap* chunk) {
      for (uint32_t bit : bits) chunk->Set(bit);
    });
  }
}

void FlashPvb::RecordErase(BlockId block) {
  GECKO_CHECK_LT(block, geometry_.num_blocks);
  uint32_t c = ChunkOf(block);
  uint32_t base = (block % blocks_per_chunk_) * geometry_.pages_per_block;
  ReadModifyWrite(c, [&](Bitmap* bits) {
    for (uint32_t i = 0; i < geometry_.pages_per_block; ++i) {
      bits->Clear(base + i);
    }
  });
}

Bitmap FlashPvb::QueryInvalidPages(BlockId block) {
  GECKO_CHECK_LT(block, geometry_.num_blocks);
  uint32_t c = ChunkOf(block);
  if (!chunk_locations_[c].IsValid()) {
    return Bitmap(geometry_.pages_per_block);  // chunk never written
  }
  device_->ReadPage(chunk_locations_[c], IoPurpose::kPvm);
  uint32_t base = (block % blocks_per_chunk_) * geometry_.pages_per_block;
  return chunk_bits_[c].ExtractChunk(base, geometry_.pages_per_block);
}

bool FlashPvb::RelocatePage(PhysicalAddress addr) {
  for (uint32_t c = 0; c < chunk_locations_.size(); ++c) {
    if (chunk_locations_[c] == addr) {
      // Rewrite the chunk verbatim at a fresh location.
      ReadModifyWrite(c, [](Bitmap*) {});
      return true;
    }
  }
  return false;
}

std::vector<uint32_t> FlashPvb::InvalidCounts(RecoveryReport* report) {
  RecoveryStep& step = report->Add("BVC (read PVB chunks)");
  IoCounters before = device_->stats().Snapshot();
  std::vector<uint32_t> counts(geometry_.num_blocks, 0);
  for (uint32_t c = 0; c < chunk_locations_.size(); ++c) {
    if (!chunk_locations_[c].IsValid()) continue;
    device_->ReadPage(chunk_locations_[c], IoPurpose::kRecovery);
    BlockId first = c * blocks_per_chunk_;
    for (uint32_t i = 0; i < blocks_per_chunk_; ++i) {
      BlockId block = first + i;
      if (block >= geometry_.num_blocks) break;
      counts[block] = static_cast<uint32_t>(
          chunk_bits_[c]
              .ExtractChunk(i * geometry_.pages_per_block,
                            geometry_.pages_per_block)
              .Count());
    }
  }
  step.page_reads = (device_->stats().Snapshot() - before).TotalReads();
  return counts;
}

void FlashPvb::ResetRamState() {
  for (auto& loc : chunk_locations_) loc = kNullAddress;
}

StoreRecovery FlashPvb::Recover(const std::vector<BlockId>& pvm_blocks,
                                RecoveryReport* report) {
  ResetRamState();
  StoreRecovery info;
  // Newest version of each chunk wins (chunk pages are updated out of
  // place, like translation pages).
  std::unordered_map<uint32_t, uint64_t> newest_seq;
  for (BlockId block : pvm_blocks) {
    for (uint32_t p = 0; p < geometry_.pages_per_block; ++p) {
      PhysicalAddress addr{block, p};
      PageReadResult r = device_->ReadSpare(addr, IoPurpose::kRecovery);
      ++info.spare_reads;
      if (!r.written) break;
      // Failed-program pages were re-placed under a newer seq; skip them.
      if (r.media_error || !r.spare.IsPvm()) continue;
      uint32_t c = r.spare.key;
      auto it = newest_seq.find(c);
      if (it == newest_seq.end() || r.spare.seq > it->second) {
        newest_seq[c] = r.spare.seq;
        chunk_locations_[c] = addr;
      }
    }
  }
  for (const PhysicalAddress& loc : chunk_locations_) {
    if (loc.IsValid()) info.live_pages.push_back(loc);
  }
  report->Add("PVB chunk directory (spare scan)").spare_reads =
      info.spare_reads;
  return info;
}

}  // namespace gecko
