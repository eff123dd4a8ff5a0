#include "core/log_gecko.h"

#include <algorithm>
#include <unordered_map>

namespace gecko {

LogGeckoStats LogGeckoStats::operator-(const LogGeckoStats& o) const {
  LogGeckoStats out;
  out.updates = updates - o.updates;
  out.erases = erases - o.erases;
  out.queries = queries - o.queries;
  out.flushes = flushes - o.flushes;
  out.merges = merges - o.merges;
  out.flush_writes = flush_writes - o.flush_writes;
  out.merge_reads = merge_reads - o.merge_reads;
  out.merge_writes = merge_writes - o.merge_writes;
  out.query_reads = query_reads - o.query_reads;
  return out;
}

LogGecko::LogGecko(const Geometry& geometry, const LogGeckoConfig& config,
                   FlashDevice* device, PageAllocator* allocator)
    : geometry_(geometry),
      config_(config),
      device_(device),
      storage_(device, allocator, config.EntriesPerPage(geometry)),
      entries_per_page_(config.EntriesPerPage(geometry)),
      chunk_bits_(config.ChunkBits(geometry)) {
  config_.Validate(geometry);
}

GeckoEntry& LogGecko::GetOrCreateBuffered(GeckoKey key) {
  auto it = buffer_.find(key);
  if (it == buffer_.end()) {
    it = buffer_.emplace(key, GeckoEntry(key, chunk_bits_)).first;
  }
  return it->second;
}

void LogGecko::RecordInvalidPage(PhysicalAddress addr) {
  GECKO_CHECK_LT(addr.block, geometry_.num_blocks);
  GECKO_CHECK_LT(addr.page, geometry_.pages_per_block);
  ++stats_.updates;
  uint32_t sub = addr.page / chunk_bits_;
  GeckoKey key = MakeGeckoKey(addr.block, sub, config_.partition_factor);
  // Algorithm 1: set the bit for the invalidated page; the erase flag (if
  // any) is left untouched — it records an erase that happened *before*
  // these invalidations.
  GetOrCreateBuffered(key).bits.Set(addr.page % chunk_bits_);
  MaybeFlush();
}

void LogGecko::RecordErase(BlockId block) {
  GECKO_CHECK_LT(block, geometry_.num_blocks);
  ++stats_.erases;
  // Algorithm 2, with replace semantics (DESIGN.md deviation 1): bits
  // buffered before the erase describe pre-erase page states and must not
  // survive it.
  for (uint32_t sub = 0; sub < config_.partition_factor; ++sub) {
    GeckoKey key = MakeGeckoKey(block, sub, config_.partition_factor);
    GeckoEntry& entry = GetOrCreateBuffered(key);
    entry.bits.Reset();
    entry.erase_flag = true;
  }
  MaybeFlush();
}

void LogGecko::MaybeFlush() {
  if (buffer_.size() >= entries_per_page_) Flush();
}

void LogGecko::Flush() {
  if (buffer_.empty()) return;
  ++stats_.flushes;
  std::vector<GeckoEntry> entries;
  entries.reserve(buffer_.size());
  for (auto& [key, entry] : buffer_) entries.push_back(std::move(entry));
  buffer_.clear();

  // A buffer flush always enters at level 0 (Section 3, "Merge
  // Operations"). Placing it higher by size would break the recency
  // invariant — every run at a lower level must hold newer content — on
  // which query early-termination at erase flags depends. (An erase can
  // overshoot the buffer past V entries, making the flushed run 2 pages.)
  const uint32_t level = 0;
  const RunImage& run =
      storage_.WriteRun(level, std::move(entries), CurrentLiveRuns());
  stats_.flush_writes += run.NumFlashPages();
  durable_seq_ = run.flush_cover_seq;
  InsertRun(run.id, level, run.creation_seq);
  MaybeMerge();
}

uint32_t LogGecko::LevelForPages(uint64_t pages) const {
  // A run of p pages sits at level floor(log_T p): level i holds runs of
  // T^i .. T^(i+1)-1 pages (Figure 2).
  uint32_t level = 0;
  uint64_t bound = config_.size_ratio;
  while (pages >= bound) {
    ++level;
    bound *= config_.size_ratio;
  }
  return level;
}

void LogGecko::InsertRun(RunId id, uint32_t level, uint64_t creation_seq) {
  if (levels_.size() <= level) levels_.resize(level + 1);
  levels_[level].push_back(LiveRun{id, creation_seq});
  // Keep oldest-first order within the level.
  std::sort(levels_[level].begin(), levels_[level].end(),
            [](const LiveRun& a, const LiveRun& b) {
              return a.creation_seq < b.creation_seq;
            });
}

void LogGecko::RemoveRun(RunId id, uint32_t level) {
  auto& runs = levels_[level];
  auto it = std::find_if(runs.begin(), runs.end(),
                         [id](const LiveRun& r) { return r.id == id; });
  GECKO_CHECK(it != runs.end());
  runs.erase(it);
}

std::vector<RunId> LogGecko::CurrentLiveRuns() const {
  std::vector<RunId> out;
  for (const auto& level : levels_) {
    for (const LiveRun& run : level) out.push_back(run.id);
  }
  return out;
}

std::vector<RunId> LogGecko::LiveRunsNewestFirst() const {
  std::vector<RunId> out;
  for (const auto& level : levels_) {
    // Within a level runs are oldest-first; query order wants newest first.
    for (auto it = level.rbegin(); it != level.rend(); ++it) {
      out.push_back(it->id);
    }
  }
  return out;
}

bool LogGecko::IsOldestLiveRun(RunId id) const {
  // The oldest live run is the last one in newest-first order.
  std::vector<RunId> order = LiveRunsNewestFirst();
  return !order.empty() && order.back() == id;
}

uint64_t LogGecko::MaxFlushCover(
    const std::vector<const RunImage*>& runs) const {
  uint64_t cover = 0;
  for (const RunImage* run : runs) {
    cover = std::max(cover, run->flush_cover_seq);
  }
  return cover;
}

void LogGecko::MaybeMerge() {
  // Loop until no level holds two runs. The two-way policy merges exactly
  // the colliding pair; the multi-way policy (Appendix A) pulls in the run
  // of every contiguously occupied level above, avoiding the rewrite
  // cascade.
  while (true) {
    int collision_level = -1;
    for (size_t i = 0; i < levels_.size(); ++i) {
      if (levels_[i].size() >= 2) {
        collision_level = static_cast<int>(i);
        break;
      }
    }
    if (collision_level < 0) return;

    // Gather participants, newest first (recency order: lower level before
    // higher, newest before oldest within a level).
    std::vector<const RunImage*> participants;
    auto add_level = [&](size_t lvl) {
      for (auto it = levels_[lvl].rbegin(); it != levels_[lvl].rend(); ++it) {
        const RunImage* image = storage_.Find(it->id);
        GECKO_CHECK(image != nullptr);
        participants.push_back(image);
      }
    };
    size_t last_level = collision_level;
    add_level(last_level);
    if (config_.merge_policy == MergePolicy::kMultiWay) {
      // A run at level i participates if level i-1 participates (App. A).
      for (size_t lvl = last_level + 1; lvl < levels_.size(); ++lvl) {
        if (levels_[lvl].empty()) break;
        add_level(lvl);
        last_level = lvl;
      }
    }

    ++stats_.merges;
    bool is_bottom = IsOldestLiveRun(participants.back()->id);
    uint64_t flush_cover = MaxFlushCover(participants);
    std::vector<GeckoEntry> merged = MergeEntries(participants, is_bottom);

    // Capture metadata before discarding inputs (pointers invalidate).
    std::vector<std::pair<RunId, uint32_t>> consumed;
    consumed.reserve(participants.size());
    for (const RunImage* run : participants) {
      consumed.emplace_back(run->id, run->level);
    }
    for (const auto& [id, level] : consumed) RemoveRun(id, level);

    if (!merged.empty()) {
      uint64_t pages =
          (merged.size() + entries_per_page_ - 1) / entries_per_page_;
      uint32_t out_level = LevelForPages(pages);
      const RunImage& out = storage_.WriteRun(
          out_level, std::move(merged), CurrentLiveRuns(), flush_cover);
      stats_.merge_writes += out.NumFlashPages();
      InsertRun(out.id, out_level, out.creation_seq);
    }
    // Discard inputs only after the output committed (crash safety: the
    // output's preamble snapshot supersedes them atomically).
    for (const auto& [id, level] : consumed) storage_.DiscardRun(id);
  }
}

std::vector<GeckoEntry> LogGecko::MergeEntries(
    const std::vector<const RunImage*>& participants, bool is_bottom) {
  // Read every input page (these are the merge's flash reads). The inputs
  // are the run images' own entries: merged from in place, not copied.
  std::vector<const std::vector<GeckoEntry>*> inputs;
  inputs.reserve(participants.size());
  size_t total = 0;
  for (const RunImage* run : participants) {
    stats_.merge_reads += run->NumDataPages();
    inputs.push_back(&storage_.ReadAllEntries(*run));
    total += inputs.back()->size();
  }

  // K-way merge by key; inputs[0] is the newest. For equal keys, start
  // from the newest entry and absorb older ones (Algorithm 3).
  std::vector<size_t> pos(inputs.size(), 0);
  std::vector<GeckoEntry> out;
  out.reserve(total);
  while (true) {
    GeckoKey min_key = 0;
    bool found = false;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const std::vector<GeckoEntry>& in = *inputs[i];
      if (pos[i] < in.size() && (!found || in[pos[i]].key < min_key)) {
        min_key = in[pos[i]].key;
        found = true;
      }
    }
    if (!found) break;

    bool first = true;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const std::vector<GeckoEntry>& in = *inputs[i];
      if (pos[i] < in.size() && in[pos[i]].key == min_key) {
        if (first) {
          out.push_back(in[pos[i]]);
          first = false;
        } else {
          out.back().AbsorbOlder(in[pos[i]]);
        }
        ++pos[i];
      }
    }
    if (is_bottom) {
      // No older runs remain below this output: erase flags have nothing
      // left to mask and empty entries carry no information (DESIGN.md
      // deviation 4).
      out.back().erase_flag = false;
      if (out.back().bits.None()) out.pop_back();
    }
  }
  return out;
}

Bitmap LogGecko::QueryInvalidPages(BlockId block) {
  GECKO_CHECK_LT(block, geometry_.num_blocks);
  ++stats_.queries;
  const uint32_t s = config_.partition_factor;
  Bitmap result(geometry_.pages_per_block);
  std::vector<bool> done(s, false);
  uint32_t remaining = s;

  auto absorb = [&](const GeckoEntry& entry) {
    uint32_t sub = GeckoKeySub(entry.key, s);
    if (done[sub]) return;
    result.CopyChunk(sub * chunk_bits_, entry.bits);
    if (entry.erase_flag) {
      done[sub] = true;
      --remaining;
    }
  };

  // 1. The buffer holds the newest information.
  for (uint32_t sub = 0; sub < s; ++sub) {
    auto it = buffer_.find(MakeGeckoKey(block, sub, s));
    if (it != buffer_.end()) absorb(it->second);
  }

  // 2. Runs, newest to oldest, one directory-guided read per run (two if
  //    the block's sub-entries straddle a page boundary).
  for (RunId id : LiveRunsNewestFirst()) {
    if (remaining == 0) break;
    const RunImage* run = storage_.Find(id);
    GECKO_CHECK(run != nullptr);
    uint32_t lo_sub = 0, hi_sub = s - 1;
    while (lo_sub < s && done[lo_sub]) ++lo_sub;
    while (hi_sub > lo_sub && done[hi_sub]) --hi_sub;
    GeckoKey lo = MakeGeckoKey(block, lo_sub, s);
    GeckoKey hi = MakeGeckoKey(block, hi_sub, s);

    const RunDirectory& dir = run->directory;
    std::vector<GeckoEntry> found;
    for (size_t p = dir.LowerBoundPage(lo); p < dir.pages.size(); ++p) {
      if (dir.first_keys[p] > hi) break;
      // Skip pages that provably end before `lo` (directory bound).
      if (p + 1 < dir.first_keys.size() && dir.first_keys[p + 1] <= lo) {
        continue;
      }
      ++stats_.query_reads;
      storage_.ReadPageEntries(*run, p, lo, hi, &found);
    }
    for (const GeckoEntry& entry : found) absorb(entry);
  }
  return result;
}

void LogGecko::ResetRamState() {
  buffer_.clear();
  levels_.clear();
  durable_seq_ = 0;
}

LogGeckoRecoveryInfo LogGecko::Recover(
    const std::vector<BlockId>& pvm_blocks) {
  GECKO_CHECK(buffer_.empty() && levels_.empty())
      << "Recover requires ResetRamState first";
  LogGeckoRecoveryInfo info;

  // Scan the spare areas of all pages in PVM blocks to locate runs and
  // check their completeness (preamble + postamble present).
  struct RunScan {
    bool has_preamble = false;
    bool has_postamble = false;
    uint64_t preamble_seq = 0;
  };
  std::unordered_map<RunId, RunScan> scans;
  for (BlockId block : pvm_blocks) {
    for (uint32_t p = 0; p < geometry_.pages_per_block; ++p) {
      PageReadResult r =
          device_->ReadSpare(PhysicalAddress{block, p}, IoPurpose::kRecovery);
      ++info.spare_reads;
      if (!r.written) break;  // sequential programming: rest of block free
      // Failed-program pages were re-placed before the run's write
      // returned; only the good copies define run completeness.
      if (r.media_error || !r.spare.IsPvm()) continue;
      RunScan& scan = scans[r.spare.key];
      if (r.spare.aux == kRunPreambleAux) {
        scan.has_preamble = true;
        scan.preamble_seq = r.spare.seq;
      } else if (r.spare.aux == kRunPostambleAux) {
        scan.has_postamble = true;
      }
    }
  }

  // The newest complete run's preamble snapshot defines the live set
  // (DESIGN.md §6.2). Incomplete runs (crash mid-write) are ignored.
  // Ordering uses the logical creation sequence stored in the preamble
  // payload — the spare-area write sequence can be newer if a greedy GC
  // configuration relocated the preamble page — so each candidate's
  // preamble is read (one page read per complete run; runs are few).
  const RunImage* newest_image = nullptr;
  for (const auto& [id, scan] : scans) {
    if (!scan.has_preamble || !scan.has_postamble) continue;
    const RunImage* image = storage_.ReadPreamble(id, IoPurpose::kRecovery);
    ++info.page_reads;
    if (image == nullptr) continue;  // superseded run, lingering pages
    if (newest_image == nullptr ||
        image->creation_seq > newest_image->creation_seq) {
      newest_image = image;
    }
  }
  if (newest_image == nullptr) return info;  // structure is empty

  for (RunId id : newest_image->live_snapshot) {
    const RunImage* image = storage_.Find(id);
    GECKO_CHECK(image != nullptr) << "live-snapshot run " << id << " missing";
    // Recover this run's directory from its postamble (Appendix C.1).
    device_->ReadPage(image->postamble, IoPurpose::kRecovery);
    ++info.page_reads;
    InsertRun(image->id, image->level, image->creation_seq);
    durable_seq_ = std::max(durable_seq_, image->flush_cover_seq);
    info.live_pages.push_back(image->preamble);
    for (const PhysicalAddress& addr : image->directory.pages) {
      info.live_pages.push_back(addr);
    }
    info.live_pages.push_back(image->postamble);
    ++info.live_runs;
  }
  return info;
}

std::vector<uint32_t> LogGecko::ReconstructInvalidCounts() {
  // GeckoRec step 5: scan every live run (newest to oldest) plus the
  // buffer, resolve per key with erase-flag semantics, and count bits.
  const uint32_t s = config_.partition_factor;
  std::vector<uint32_t> counts(geometry_.num_blocks, 0);

  // Gather per-key resolved entries by replaying recency order.
  std::map<GeckoKey, GeckoEntry> resolved;
  auto absorb = [&](const GeckoEntry& e) {
    auto it = resolved.find(e.key);
    if (it == resolved.end()) {
      resolved.emplace(e.key, e);
    } else {
      it->second.AbsorbOlder(e);
    }
  };
  for (const auto& [key, entry] : buffer_) absorb(entry);
  for (RunId id : LiveRunsNewestFirst()) {
    const RunImage* run = storage_.Find(id);
    GECKO_CHECK(run != nullptr);
    for (const GeckoEntry& e : storage_.ReadAllEntries(*run)) absorb(e);
  }
  for (const auto& [key, entry] : resolved) {
    counts[GeckoKeyBlock(key, s)] += static_cast<uint32_t>(entry.bits.Count());
  }
  return counts;
}

uint32_t LogGecko::NumLevels() const {
  return static_cast<uint32_t>(levels_.size());
}

uint32_t LogGecko::NumLiveRuns() const {
  uint32_t n = 0;
  for (const auto& level : levels_) n += static_cast<uint32_t>(level.size());
  return n;
}

uint64_t LogGecko::RamBytes() const {
  // Appendix B: the insert buffer is one page; merges need input/output
  // buffers (2 pages for two-way, L+1 for multi-way); run directories hold
  // 8 bytes (key + address) per Gecko data page.
  uint64_t buffers = geometry_.page_bytes *
                     (config_.merge_policy == MergePolicy::kMultiWay
                          ? (2ull + NumLevels())
                          : 3ull);
  uint64_t directories = 0;
  for (const auto& level : levels_) {
    for (const LiveRun& run : level) {
      const RunImage* image = storage_.Find(run.id);
      if (image != nullptr) directories += image->directory.RamBytes();
    }
  }
  return buffers + directories;
}

}  // namespace gecko
