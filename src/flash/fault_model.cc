#include "flash/fault_model.h"

namespace gecko {

uint32_t FaultModel::RollTransientReadRetries(PhysicalAddress addr) {
  auto it = armed_transient_read_.find(PageKey(addr));
  if (it != armed_transient_read_.end()) {
    uint32_t retries = it->second;
    armed_transient_read_.erase(it);
    return retries;
  }
  if (!config_.enabled || config_.transient_read_fault_rate <= 0.0) return 0;
  if (!rng_.Bernoulli(config_.transient_read_fault_rate)) return 0;
  // The fault always clears within the retry budget: uniform in [1, R].
  return 1 + static_cast<uint32_t>(rng_.Uniform(kMaxReadRetries));
}

bool FaultModel::RollHardReadFault(PhysicalAddress addr, bool rate_eligible) {
  auto it = armed_hard_read_.find(PageKey(addr));
  if (it != armed_hard_read_.end()) {
    if (--it->second == 0) armed_hard_read_.erase(it);
    return true;
  }
  if (!config_.enabled || !rate_eligible) return false;
  if (config_.hard_read_fault_rate <= 0.0) return false;
  return rng_.Bernoulli(config_.hard_read_fault_rate);
}

bool FaultModel::RollProgramFault(PhysicalAddress addr) {
  auto it = armed_program_.find(addr.block);
  if (it != armed_program_.end()) {
    if (--it->second == 0) armed_program_.erase(it);
    return true;
  }
  if (!config_.enabled || config_.program_fault_rate <= 0.0) return false;
  return rng_.Bernoulli(config_.program_fault_rate);
}

bool FaultModel::RollEraseFault(BlockId block) {
  auto it = armed_erase_.find(block);
  if (it != armed_erase_.end()) {
    if (--it->second == 0) armed_erase_.erase(it);
    return true;
  }
  if (!config_.enabled || config_.erase_fault_rate <= 0.0) return false;
  return rng_.Bernoulli(config_.erase_fault_rate);
}

void FaultModel::ArmProgramFault(BlockId block, uint32_t count) {
  if (count == 0) return;
  armed_program_[block] += count;
}

void FaultModel::ArmEraseFault(BlockId block) { armed_erase_[block] += 1; }

void FaultModel::ArmHardReadFault(PhysicalAddress addr) {
  armed_hard_read_[PageKey(addr)] += 1;
}

void FaultModel::ArmTransientReadFault(PhysicalAddress addr,
                                       uint32_t retries) {
  if (retries == 0) return;
  armed_transient_read_[PageKey(addr)] = retries;
}

}  // namespace gecko
