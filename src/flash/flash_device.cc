#include "flash/flash_device.h"

#include <algorithm>
#include <limits>

namespace gecko {

FlashDevice::FlashDevice(const Geometry& geometry, LatencyModel latency,
                         FaultConfig faults)
    : geometry_(geometry),
      stats_(latency, geometry.num_channels),
      channels_(geometry.num_channels, latency),
      faults_(faults),
      pages_(geometry.TotalPages()),
      blocks_(geometry.num_blocks) {
  geometry_.Validate();
  for (BlockId b : faults_.config().factory_bad) {
    GECKO_CHECK_LT(b, geometry_.num_blocks)
        << "factory-bad block out of range";
    RetireBlock(b);
  }
}

void FlashDevice::CheckAddress(PhysicalAddress addr) const {
  GECKO_CHECK_LT(addr.block, geometry_.num_blocks)
      << "block out of range: " << addr.ToString();
  GECKO_CHECK_LT(addr.page, geometry_.pages_per_block)
      << "page out of range: " << addr.ToString();
}

void FlashDevice::BeginBatch() { ++batch_depth_; }

FlashDevice::BatchResult FlashDevice::EndBatch() {
  GECKO_CHECK_GT(batch_depth_, 0u) << "EndBatch without BeginBatch";
  --batch_depth_;
  if (batch_depth_ > 0) return BatchResult{};
  return AdvanceTo(std::numeric_limits<double>::infinity());
}

FlashDevice::BatchResult FlashDevice::AdvanceTo(double until_us) {
  BatchResult retired =
      channels_.Retire(until_us, [this](ChannelId c, double service_us) {
        stats_.OnChannelComplete(c, service_us);
      });
  stats_.AdvanceElapsed(retired.elapsed_us);
  return retired;
}

void FlashDevice::BeginOpScope() {
  GECKO_CHECK(!op_scope_open_) << "op scopes do not nest";
  op_scope_open_ = true;
  op_scope_ = OpScope{};
}

FlashDevice::OpScope FlashDevice::EndOpScope() {
  GECKO_CHECK(op_scope_open_) << "EndOpScope without BeginOpScope";
  op_scope_open_ = false;
  return op_scope_;
}

void FlashDevice::SubmitOp(FlashOpKind kind, BlockId block) {
  const ChannelId channel = ChannelOf(block);
  const double complete_us = channels_.Submit(channel, kind);
  stats_.OnChannelSubmit(channels_.depth(channel));
  if (op_scope_open_) {
    ++op_scope_.ops;
    op_scope_.last_complete_us =
        std::max(op_scope_.last_complete_us, complete_us);
  }
  if (batch_depth_ == 0) AdvanceTo(std::numeric_limits<double>::infinity());
}

uint64_t FlashDevice::WritePage(PhysicalAddress addr, SpareArea spare,
                                uint64_t payload, IoPurpose purpose) {
  ProgramResult r = ProgramPage(addr, spare, payload, purpose);
  GECKO_CHECK(r.ok) << "unhandled program fault at " << addr.ToString()
                    << " (use ProgramPage / AllocateAndProgram on fault-"
                    << "injected devices)";
  return r.seq;
}

ProgramResult FlashDevice::ProgramPage(PhysicalAddress addr, SpareArea spare,
                                       uint64_t payload, IoPurpose purpose) {
  CheckAddress(addr);
  BlockRecord& block = blocks_[addr.block];
  GECKO_CHECK(!block.retired)
      << "program to retired block " << addr.ToString();
  // NAND rule (4): programs within a block must be sequential, and rule (2):
  // a programmed page cannot be reprogrammed before an erase.
  GECKO_CHECK_EQ(addr.page, block.write_pointer)
      << "non-sequential program at " << addr.ToString()
      << " (write pointer at page " << block.write_pointer << ")";
  PageRecord& page = pages_[FlatIndex(addr)];
  GECKO_CHECK(!page.written) << "rewriting programmed page " << addr.ToString();
  GECKO_CHECK(spare.type != PageType::kFree)
      << "writes must declare a page type";

  // The attempt consumes the page and a sequence number whether or not the
  // medium accepts it: a failed program leaves the cells in an undefined
  // state, so the page can never be used until the block is erased. The
  // stamped spare (with its seq) is kept so recovery scans still see a
  // monotone seq order within the block; reads flag it media_error.
  spare.seq = next_seq_++;
  spare.erase_count = static_cast<uint16_t>(block.erase_count);
  block.last_program_seq = spare.seq;
  page.written = true;
  page.spare = spare;
  ++block.write_pointer;
  bool failed = faults_.RollProgramFault(addr);
  if (failed) {
    page.bad = true;
    page.payload = 0;
    stats_.OnProgramFault();
  } else {
    page.payload = payload;
  }
  stats_.OnPageWrite(purpose);
  SubmitOp(FlashOpKind::kPageWrite, addr.block);
  return ProgramResult{!failed, spare.seq};
}

void FlashDevice::ChargeReadRetries(BlockId block, uint32_t retries) {
  // Each retry is one more real read op on the page's channel: it queues,
  // occupies the channel for a full read latency, and delays everything
  // behind it — but is not a distinct page read in the per-purpose counts
  // (the host issued one read; the medium just made it expensive).
  for (uint32_t i = 0; i < retries; ++i) {
    SubmitOp(FlashOpKind::kPageRead, block);
  }
}

PageReadResult FlashDevice::ReadPage(PhysicalAddress addr, IoPurpose purpose) {
  CheckAddress(addr);
  stats_.OnPageRead(purpose);
  SubmitOp(FlashOpKind::kPageRead, addr.block);
  const BlockRecord& block = blocks_[addr.block];
  const PageRecord& page = pages_[FlatIndex(addr)];
  if (block.retired || page.bad) {
    // Known-bad medium: no fault roll, no retries — the data is simply
    // not there. The stored spare is returned for recovery-scan ordering.
    return PageReadResult{page.written, 0, page.spare, true};
  }
  if (page.written) {
    uint32_t retries = faults_.RollTransientReadRetries(addr);
    if (retries > 0) {
      ChargeReadRetries(addr.block, retries);
      stats_.OnTransientReadFault(retries);
    }
    if (faults_.RollHardReadFault(addr, purpose == IoPurpose::kUserRead)) {
      stats_.OnHardReadFault();
      return PageReadResult{true, 0, page.spare, true};
    }
  }
  return PageReadResult{page.written, page.payload, page.spare, false};
}

PageReadResult FlashDevice::ReadSpare(PhysicalAddress addr, IoPurpose purpose) {
  CheckAddress(addr);
  stats_.OnSpareRead(purpose);
  SubmitOp(FlashOpKind::kSpareRead, addr.block);
  return PeekSpare(addr);
}

PageReadResult FlashDevice::PeekSpare(PhysicalAddress addr) const {
  CheckAddress(addr);
  const BlockRecord& block = blocks_[addr.block];
  const PageRecord& page = pages_[FlatIndex(addr)];
  // Spare reads never fault by rate (firmware keeps OOB metadata under
  // much stronger ECC), but a bad/retired page's spare is still flagged so
  // scans know its key/type cannot be trusted.
  bool media_error = block.retired || page.bad;
  return PageReadResult{page.written, 0, page.spare, media_error};
}

void FlashDevice::EraseBlock(BlockId block_id, IoPurpose purpose) {
  GECKO_CHECK(TryEraseBlock(block_id, purpose))
      << "unhandled erase fault at block " << block_id
      << " (use TryEraseBlock on fault-injected devices)";
}

bool FlashDevice::TryEraseBlock(BlockId block_id, IoPurpose purpose) {
  GECKO_CHECK_LT(block_id, geometry_.num_blocks);
  BlockRecord& block = blocks_[block_id];
  GECKO_CHECK(!block.retired) << "erase of retired block " << block_id;
  if (faults_.RollEraseFault(block_id)) {
    // The failed attempt still occupied the channel for an erase latency;
    // the block is permanently retired (grown bad).
    stats_.OnEraseFault();
    SubmitOp(FlashOpKind::kErase, block_id);
    RetireBlock(block_id);
    return false;
  }
  uint64_t base = uint64_t{block_id} * geometry_.pages_per_block;
  for (uint32_t i = 0; i < geometry_.pages_per_block; ++i) {
    pages_[base + i] = PageRecord{};
  }
  block.write_pointer = 0;
  ++block.erase_count;
  block.last_program_seq = 0;
  block.last_erase_seq = next_seq_++;
  ++global_erase_count_;
  stats_.OnErase(purpose);
  SubmitOp(FlashOpKind::kErase, block_id);
  return true;
}

void FlashDevice::RetireBlock(BlockId block_id) {
  GECKO_CHECK_LT(block_id, geometry_.num_blocks);
  BlockRecord& block = blocks_[block_id];
  if (block.retired) return;
  uint64_t base = uint64_t{block_id} * geometry_.pages_per_block;
  for (uint32_t i = 0; i < geometry_.pages_per_block; ++i) {
    pages_[base + i] = PageRecord{};
  }
  block.write_pointer = 0;
  block.last_program_seq = 0;
  block.retired = true;
  ++num_bad_blocks_;
}

bool FlashDevice::IsBadBlock(BlockId block_id) const {
  GECKO_CHECK_LT(block_id, geometry_.num_blocks);
  return blocks_[block_id].retired;
}

uint32_t FlashDevice::PagesWritten(BlockId block) const {
  GECKO_CHECK_LT(block, geometry_.num_blocks);
  return blocks_[block].write_pointer;
}

bool FlashDevice::IsWritten(PhysicalAddress addr) const {
  CheckAddress(addr);
  return pages_[FlatIndex(addr)].written;
}

uint32_t FlashDevice::EraseCount(BlockId block) const {
  GECKO_CHECK_LT(block, geometry_.num_blocks);
  return blocks_[block].erase_count;
}

uint64_t FlashDevice::LastEraseSeq(BlockId block) const {
  GECKO_CHECK_LT(block, geometry_.num_blocks);
  return blocks_[block].last_erase_seq;
}

uint64_t FlashDevice::LastProgramSeq(BlockId block) const {
  GECKO_CHECK_LT(block, geometry_.num_blocks);
  return blocks_[block].last_program_seq;
}

}  // namespace gecko
