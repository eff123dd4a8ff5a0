// Analytic recovery-time models for the five FTLs (Appendix C and
// Section 5.3's "Recovery Time Comparison").
//
// Each model decomposes recovery into named steps with counts of spare
// reads, page reads, and page writes; time uses the paper's constants
// (spare read 3 us, page read 100 us, page write 1 ms). Figure 1 (bottom)
// and Figure 13 (middle) are produced from these models at paper scale.

#ifndef GECKOFTL_MODEL_RECOVERY_MODEL_H_
#define GECKOFTL_MODEL_RECOVERY_MODEL_H_

#include <string>
#include <vector>

#include "flash/geometry.h"
#include "flash/latency.h"
#include "pvm/recovery_report.h"
#include "model/ram_model.h"

namespace gecko {

/// A recovery-time breakdown for one FTL. Steps whose cost a battery
/// absorbs are present with zero counts and `battery = true`, matching
/// the "battery" annotations of Figure 13.
struct RecoveryModelStep {
  std::string name;
  RecoveryStep cost;  // counts only; name inside is unused
  bool battery = false;
};

struct RecoveryBreakdown {
  std::string ftl;
  std::vector<RecoveryModelStep> steps;

  double TotalMicros(const LatencyModel& lat) const {
    double t = 0;
    for (const auto& s : steps) t += s.cost.Micros(lat);
    return t;
  }
};

RecoveryBreakdown DftlRecovery(const Geometry& g, const RamModelParams& p);
RecoveryBreakdown LazyFtlRecovery(const Geometry& g, const RamModelParams& p);
RecoveryBreakdown MuFtlRecovery(const Geometry& g, const RamModelParams& p);
RecoveryBreakdown IbFtlRecovery(const Geometry& g, const RamModelParams& p);
RecoveryBreakdown GeckoFtlRecovery(const Geometry& g,
                                   const RamModelParams& p);

std::vector<RecoveryBreakdown> AllFtlRecovery(const Geometry& g,
                                              const RamModelParams& p);

}  // namespace gecko

#endif  // GECKOFTL_MODEL_RECOVERY_MODEL_H_
