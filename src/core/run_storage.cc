#include "core/run_storage.h"

#include <algorithm>

namespace gecko {

size_t RunDirectory::LowerBoundPage(GeckoKey key) const {
  // Find the last page whose first key is <= key; that page is the first
  // that can contain `key` (pages are sorted and contiguous).
  auto it = std::upper_bound(first_keys.begin(), first_keys.end(), key);
  if (it == first_keys.begin()) return 0;
  return static_cast<size_t>(it - first_keys.begin()) - 1;
}

RunStorage::RunStorage(FlashDevice* device, PageAllocator* allocator,
                       uint32_t entries_per_page)
    : device_(device),
      allocator_(allocator),
      entries_per_page_(entries_per_page) {
  GECKO_CHECK_GE(entries_per_page, 2u);
}

const RunImage& RunStorage::WriteRun(uint32_t level,
                                     std::vector<GeckoEntry> entries,
                                     std::vector<RunId> live_after,
                                     uint64_t flush_cover_seq) {
  GECKO_CHECK(!entries.empty());
  GECKO_CHECK(std::is_sorted(
      entries.begin(), entries.end(),
      [](const GeckoEntry& a, const GeckoEntry& b) { return a.key < b.key; }));

  RunImage image;
  image.id = next_run_id_++;
  image.level = level;
  image.live_snapshot = std::move(live_after);
  image.live_snapshot.push_back(image.id);

  // Stream = the run's id: a run's pages stay contiguous in one stripe
  // slot (the run is discarded wholesale, so its blocks free together),
  // while *successive* runs rotate across slots — L0 flushes are the
  // steady metadata write stream, and pinning every L0 run to the same
  // slot (stream = level) would put all of them on one channel, a serial
  // bottleneck once independent requests are in flight. Rotating by run
  // id can mix runs of different levels in one block; the single-active-
  // block configuration (1 channel) always did that, so the never-
  // collect-metadata policy already tolerates it.
  const uint32_t stream = static_cast<uint32_t>(image.id);

  // Preamble: run id + level + live-run snapshot. The payload token is the
  // run id; level rides in the spare's aux low bits would collide with the
  // marker, so recovery reads the preamble *page* for it (one page read).
  SpareArea spare;
  spare.type = PageType::kPvm;
  spare.key = static_cast<uint32_t>(image.id);
  spare.aux = kRunPreambleAux;
  // Program faults re-place each run page transparently (the directory
  // and preamble/postamble addresses below always name good pages).
  PlacedProgram pre = AllocateAndProgram(device_, allocator_, PageType::kPvm,
                                         stream, spare, image.id,
                                         IoPurpose::kPvm);
  image.preamble = pre.addr;
  image.creation_seq = pre.seq;
  image.flush_cover_seq =
      flush_cover_seq == 0 ? image.creation_seq : flush_cover_seq;

  // Data pages: entries_per_page_ entries each, directory built as we go.
  size_t num_pages = (entries.size() + entries_per_page_ - 1) /
                     entries_per_page_;
  for (size_t p = 0; p < num_pages; ++p) {
    SpareArea data_spare;
    data_spare.type = PageType::kPvm;
    data_spare.key = static_cast<uint32_t>(image.id);
    data_spare.aux = static_cast<uint32_t>(p);
    PhysicalAddress addr = AllocateAndProgram(device_, allocator_,
                                              PageType::kPvm, stream,
                                              data_spare, image.id,
                                              IoPurpose::kPvm)
                               .addr;
    image.directory.pages.push_back(addr);
    image.directory.first_keys.push_back(entries[p * entries_per_page_].key);
  }

  // Postamble: a copy of the run directory (Appendix C.1). Its presence
  // marks the run as completely written.
  SpareArea post_spare;
  post_spare.type = PageType::kPvm;
  post_spare.key = static_cast<uint32_t>(image.id);
  post_spare.aux = kRunPostambleAux;
  image.postamble = AllocateAndProgram(device_, allocator_, PageType::kPvm,
                                       stream, post_spare, image.id,
                                       IoPurpose::kPvm)
                        .addr;

  image.entries = std::move(entries);
  auto [it, inserted] = images_.emplace(image.id, std::move(image));
  GECKO_CHECK(inserted);
  return it->second;
}

void RunStorage::ReadPageEntries(const RunImage& run, size_t page_index,
                                 GeckoKey lo, GeckoKey hi,
                                 std::vector<GeckoEntry>* out) {
  GECKO_CHECK_LT(page_index, run.directory.pages.size());
  device_->ReadPage(run.directory.pages[page_index], IoPurpose::kPvm);
  size_t begin = page_index * entries_per_page_;
  size_t end = std::min(begin + entries_per_page_, run.entries.size());
  for (size_t i = begin; i < end; ++i) {
    const GeckoEntry& e = run.entries[i];
    if (e.key > hi) break;
    if (e.key >= lo) out->push_back(e);
  }
}

const std::vector<GeckoEntry>& RunStorage::ReadAllEntries(
    const RunImage& run) {
  for (const PhysicalAddress& addr : run.directory.pages) {
    device_->ReadPage(addr, IoPurpose::kPvm);
  }
  return run.entries;
}

void RunStorage::DiscardRun(RunId id) {
  auto it = images_.find(id);
  GECKO_CHECK(it != images_.end()) << "discarding unknown run " << id;
  const RunImage& image = it->second;
  allocator_->OnMetadataPageInvalidated(image.preamble);
  for (const PhysicalAddress& addr : image.directory.pages) {
    allocator_->OnMetadataPageInvalidated(addr);
  }
  allocator_->OnMetadataPageInvalidated(image.postamble);
  images_.erase(it);
}

bool RunStorage::RelocatePage(PhysicalAddress addr) {
  for (auto& [id, image] : images_) {
    SpareArea spare;
    spare.type = PageType::kPvm;
    spare.key = static_cast<uint32_t>(id);
    auto move_page = [&](PhysicalAddress* slot, uint32_t aux) {
      device_->ReadPage(*slot, IoPurpose::kPvm);
      spare.aux = aux;
      PhysicalAddress fresh =
          AllocateAndProgram(device_, allocator_, PageType::kPvm,
                             static_cast<uint32_t>(image.id), spare, id,
                             IoPurpose::kPvm)
              .addr;
      allocator_->OnMetadataPageInvalidated(*slot);
      *slot = fresh;
    };
    if (image.preamble == addr) {
      move_page(&image.preamble, kRunPreambleAux);
      return true;
    }
    if (image.postamble == addr) {
      move_page(&image.postamble, kRunPostambleAux);
      return true;
    }
    for (size_t p = 0; p < image.directory.pages.size(); ++p) {
      if (image.directory.pages[p] == addr) {
        move_page(&image.directory.pages[p], static_cast<uint32_t>(p));
        // The persisted directory copy is now stale: rewrite the
        // postamble so crash recovery sees the new layout.
        move_page(&image.postamble, kRunPostambleAux);
        return true;
      }
    }
  }
  return false;
}

const RunImage* RunStorage::ReadPreamble(RunId id, IoPurpose purpose) {
  auto it = images_.find(id);
  if (it == images_.end()) return nullptr;
  device_->ReadPage(it->second.preamble, purpose);
  return &it->second;
}

const RunImage* RunStorage::Find(RunId id) const {
  auto it = images_.find(id);
  return it == images_.end() ? nullptr : &it->second;
}

uint64_t RunStorage::TotalFlashPages() const {
  uint64_t total = 0;
  for (const auto& [id, image] : images_) total += image.NumFlashPages();
  return total;
}

}  // namespace gecko
