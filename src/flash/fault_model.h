// Deterministic media-fault injection for the simulated NAND device.
//
// Real very-large flash devices are defined by their error behaviour: reads
// need retries as cells drift, programs fail and consume the page, erases
// fail and retire the block, and shipped devices carry factory-marked bad
// blocks. The FaultModel decides — reproducibly, from a seed — which ops
// fail and how, while FlashDevice applies the consequences to the medium:
//
//   transient read fault  succeeds after <= kMaxReadRetries extra read
//                         ops (latency only; data is intact)
//   hard read fault       uncorrectable: the read returns media_error and
//                         the FTL surfaces kIoError per extent
//   program fault         the page is consumed and marked bad; the FTL
//                         must re-place the data on a fresh page
//   erase fault           the block is permanently retired (grown bad)
//
// Rate-based faults are rolled per op from a private seeded Rng. Hard read
// faults by rate apply only to user-data page reads (IoPurpose::kUserRead):
// metadata and recovery reads keep their durability story, mirroring the
// much stronger ECC/redundancy firmware gives metadata. Transient faults
// apply to every full page read. Spare reads never fault by rate.
//
// Targeted triggers let tests arm precise failures ("fail the next program
// landing on block B") independently of the rates; each fires once.

#ifndef GECKOFTL_FLASH_FAULT_MODEL_H_
#define GECKOFTL_FLASH_FAULT_MODEL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flash/types.h"
#include "util/random.h"

namespace gecko {

/// Knobs for the fault plane. Default-constructed == perfect medium (the
/// pre-fault-injection behaviour, bit for bit).
/// Retry budget R: a transient read fault always clears within [1, R]
/// extra read ops (the device charges each through its channel queue).
inline constexpr uint32_t kMaxReadRetries = 3;

struct FaultConfig {
  bool enabled = false;   // master switch; false short-circuits every roll
  uint64_t seed = 1;      // seed for the fault plane's private Rng

  double transient_read_fault_rate = 0.0;  // per full page read
  double hard_read_fault_rate = 0.0;       // per kUserRead page read
  double program_fault_rate = 0.0;         // per page program
  double erase_fault_rate = 0.0;           // per block erase

  /// Blocks retired before first use (shipped bad-block list).
  std::vector<BlockId> factory_bad;
};

/// Seeded fault oracle consulted by FlashDevice on every op. Not
/// thread-safe; owned by the (single-threaded) device.
class FaultModel {
 public:
  explicit FaultModel(const FaultConfig& config)
      : config_(config), rng_(config.seed) {}

  const FaultConfig& config() const { return config_; }

  // --- Per-op rolls (consulted by FlashDevice) ---------------------------

  /// Extra read ops a transient fault costs this page read: 0 = no fault,
  /// otherwise in [1, kMaxReadRetries]. Armed triggers fire first.
  uint32_t RollTransientReadRetries(PhysicalAddress addr);

  /// Whether this user-data page read is uncorrectable. Armed triggers
  /// fire regardless of purpose; the caller gates the rate-based roll to
  /// kUserRead.
  bool RollHardReadFault(PhysicalAddress addr, bool rate_eligible);

  /// Whether the program landing on `addr` fails (page goes bad).
  bool RollProgramFault(PhysicalAddress addr);

  /// Whether the erase of `block` fails (block is retired).
  bool RollEraseFault(BlockId block);

  // --- Targeted triggers (tests) -----------------------------------------
  // Each fires once, then disarms. Triggers work even when `enabled` is
  // false and no rates are set, so tests can inject one precise fault into
  // an otherwise perfect medium.

  /// Fail the next `count` programs that land anywhere on `block`.
  void ArmProgramFault(BlockId block, uint32_t count = 1);
  /// Fail the next erase of `block`.
  void ArmEraseFault(BlockId block);
  /// Make the next page read of `addr` uncorrectable.
  void ArmHardReadFault(PhysicalAddress addr);
  /// Make the next page read of `addr` cost `retries` extra read ops.
  void ArmTransientReadFault(PhysicalAddress addr, uint32_t retries);

  /// Whether any targeted trigger is still armed (test hygiene checks).
  bool HasArmedTriggers() const {
    return !armed_program_.empty() || !armed_erase_.empty() ||
           !armed_hard_read_.empty() || !armed_transient_read_.empty();
  }

 private:
  static uint64_t PageKey(PhysicalAddress addr) {
    return (uint64_t{addr.block} << 32) | addr.page;
  }

  FaultConfig config_;
  Rng rng_;
  std::unordered_map<BlockId, uint32_t> armed_program_;   // block -> count
  std::unordered_map<BlockId, uint32_t> armed_erase_;     // block -> count
  std::unordered_map<uint64_t, uint32_t> armed_hard_read_;       // page key
  std::unordered_map<uint64_t, uint32_t> armed_transient_read_;  // -> retries
};

}  // namespace gecko

#endif  // GECKOFTL_FLASH_FAULT_MODEL_H_
