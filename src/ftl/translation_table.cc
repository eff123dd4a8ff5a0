#include "ftl/translation_table.h"

namespace gecko {

TranslationTable::TranslationTable(const Geometry& geometry,
                                   FlashDevice* device,
                                   PageAllocator* allocator)
    : geometry_(geometry),
      device_(device),
      allocator_(allocator),
      entries_per_page_(geometry.MappingEntriesPerTranslationPage()),
      num_tpages_(static_cast<uint32_t>(geometry.NumTranslationPages())),
      gmd_(num_tpages_, kNullAddress),
      block_images_(geometry.num_blocks, 0) {}

std::vector<PhysicalAddress> TranslationTable::ReadTPage(TPageId t,
                                                         IoPurpose purpose) {
  GECKO_CHECK_LT(t, num_tpages_);
  if (!gmd_[t].IsValid()) {
    return std::vector<PhysicalAddress>(entries_per_page_, kNullAddress);
  }
  return ReadVersion(gmd_[t], purpose);
}

PhysicalAddress TranslationTable::Lookup(Lpn lpn, IoPurpose purpose) {
  TPageId t = TPageOf(lpn);
  if (!gmd_[t].IsValid()) return kNullAddress;
  const auto& mappings = ReadVersion(gmd_[t], purpose);
  return mappings[lpn % entries_per_page_];
}

PhysicalAddress TranslationTable::PeekMapping(Lpn lpn) const {
  TPageId t = TPageOf(lpn);
  if (!gmd_[t].IsValid()) return kNullAddress;
  auto it = images_.find(device_->FlatIndex(gmd_[t]));
  GECKO_CHECK(it != images_.end())
      << "no translation page at " << gmd_[t].ToString();
  return it->second.mappings[lpn % entries_per_page_];
}

PhysicalAddress TranslationTable::CommitTPage(
    TPageId t, std::vector<PhysicalAddress> mappings, IoPurpose purpose) {
  GECKO_CHECK_LT(t, num_tpages_);
  GECKO_CHECK_EQ(mappings.size(), entries_per_page_);
  PhysicalAddress old = gmd_[t];
  // Stream = the translation page id: all versions of one tpage append to
  // one stripe slot (they supersede each other, so their blocks free
  // wholesale), while different tpages commit on different channels.
  SpareArea spare;
  spare.type = PageType::kTranslation;
  spare.key = t;
  // A program fault re-places the version transparently; only the page
  // that actually holds the committed image enters the GMD.
  PhysicalAddress fresh = AllocateAndProgram(device_, allocator_,
                                             PageType::kTranslation, t, spare,
                                             t, purpose)
                              .addr;
  block_images_[fresh.block] += images_.insert_or_assign(
      device_->FlatIndex(fresh), VersionImage{t, std::move(mappings)}).second;
  gmd_[t] = fresh;
  if (old.IsValid()) {
    allocator_->OnMetadataPageInvalidated(old);
  }
  return old;
}

void TranslationTable::MigrateTPage(TPageId t, IoPurpose purpose) {
  GECKO_CHECK(gmd_[t].IsValid());
  std::vector<PhysicalAddress> mappings = ReadVersion(gmd_[t], purpose);
  CommitTPage(t, std::move(mappings), purpose);
}

const std::vector<PhysicalAddress>& TranslationTable::ReadVersion(
    PhysicalAddress addr, IoPurpose purpose) {
  auto it = images_.find(device_->FlatIndex(addr));
  GECKO_CHECK(it != images_.end())
      << "no translation page at " << addr.ToString();
  device_->ReadPage(addr, purpose);
  return it->second.mappings;
}

void TranslationTable::OnBlockErased(BlockId block) {
  // Most erased blocks (every user block) never held an image.
  if (block_images_[block] == 0) return;
  block_images_[block] = 0;
  uint64_t base = uint64_t{block} * geometry_.pages_per_block;
  for (uint32_t p = 0; p < geometry_.pages_per_block; ++p) {
    images_.erase(base + p);
  }
}

void TranslationTable::ResetRamState() {
  std::fill(gmd_.begin(), gmd_.end(), kNullAddress);
}

uint64_t TranslationTable::RecoverGmd(
    const std::vector<BlockId>& translation_blocks,
    std::vector<TPageVersions>* versions) {
  uint64_t spare_reads = 0;
  std::vector<TPageVersions> v(num_tpages_);
  for (BlockId block : translation_blocks) {
    for (uint32_t p = 0; p < geometry_.pages_per_block; ++p) {
      PhysicalAddress addr{block, p};
      PageReadResult r = device_->ReadSpare(addr, IoPurpose::kRecovery);
      ++spare_reads;
      if (!r.written) break;
      // Failed-program pages carry a stamped spare but no image: the
      // committed version was re-placed under a newer seq, so skipping
      // them never loses the current version.
      if (r.media_error || !r.spare.IsTranslation()) continue;
      TPageId t = r.spare.key;
      GECKO_CHECK_LT(t, num_tpages_);
      v[t].versions.push_back(TPageVersion{addr, r.spare.seq});
    }
  }
  for (TPageId t = 0; t < num_tpages_; ++t) {
    auto& versions = v[t].versions;
    std::sort(versions.begin(), versions.end(),
              [](const TPageVersion& a, const TPageVersion& b) {
                return a.seq < b.seq;
              });
    if (!versions.empty()) {
      v[t].current = versions.back().addr;
      v[t].current_seq = versions.back().seq;
      gmd_[t] = v[t].current;
    }
  }
  if (versions != nullptr) *versions = std::move(v);
  return spare_reads;
}

}  // namespace gecko
