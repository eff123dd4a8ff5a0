// Per-step accounting of a power-failure recovery (Appendix C).

#ifndef GECKOFTL_PVM_RECOVERY_REPORT_H_
#define GECKOFTL_PVM_RECOVERY_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "flash/latency.h"

namespace gecko {

/// IO counts and modeled time for one recovery step.
struct RecoveryStep {
  std::string name;
  uint64_t spare_reads = 0;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;

  double Micros(const LatencyModel& lat) const {
    return spare_reads * lat.spare_read_us + page_reads * lat.page_read_us +
           page_writes * lat.page_write_us;
  }
};

/// Full recovery report: the eight GeckoRec steps (or the corresponding
/// steps of a baseline FTL's recovery).
struct RecoveryReport {
  std::vector<RecoveryStep> steps;

  RecoveryStep& Add(std::string name) {
    steps.push_back(RecoveryStep{std::move(name)});
    return steps.back();
  }

  double TotalMicros(const LatencyModel& lat) const {
    double total = 0;
    for (const RecoveryStep& s : steps) total += s.Micros(lat);
    return total;
  }

  uint64_t TotalSpareReads() const {
    uint64_t n = 0;
    for (const RecoveryStep& s : steps) n += s.spare_reads;
    return n;
  }
  uint64_t TotalPageReads() const {
    uint64_t n = 0;
    for (const RecoveryStep& s : steps) n += s.page_reads;
    return n;
  }
  uint64_t TotalPageWrites() const {
    uint64_t n = 0;
    for (const RecoveryStep& s : steps) n += s.page_writes;
    return n;
  }
};

}  // namespace gecko

#endif  // GECKOFTL_PVM_RECOVERY_REPORT_H_
