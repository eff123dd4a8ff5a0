#include "flash/io_stats.h"

#include <sstream>

namespace gecko {

const char* IoPurposeName(IoPurpose p) {
  switch (p) {
    case IoPurpose::kUserWrite: return "user-write";
    case IoPurpose::kUserRead: return "user-read";
    case IoPurpose::kGcMigration: return "gc-migration";
    case IoPurpose::kTranslation: return "translation";
    case IoPurpose::kPvm: return "page-validity";
    case IoPurpose::kRecovery: return "recovery";
    case IoPurpose::kWearLeveling: return "wear-leveling";
    case IoPurpose::kOther: return "other";
  }
  return "?";
}

const char* RequestClassName(RequestClass c) {
  switch (c) {
    case RequestClass::kWrite: return "write";
    case RequestClass::kRead: return "read";
    case RequestClass::kTrim: return "trim";
    case RequestClass::kFlush: return "flush";
    case RequestClass::kMaintenance: return "maintenance";
  }
  return "?";
}

namespace {
uint64_t Sum(const std::array<uint64_t, kNumIoPurposes>& a) {
  uint64_t s = 0;
  for (uint64_t v : a) s += v;
  return s;
}
}  // namespace

uint64_t IoCounters::TotalReads() const { return Sum(page_reads); }
uint64_t IoCounters::TotalWrites() const { return Sum(page_writes); }
uint64_t IoCounters::TotalSpareReads() const { return Sum(spare_reads); }
uint64_t IoCounters::TotalErases() const { return Sum(erases); }

uint64_t IoCounters::InternalReads() const {
  return TotalReads() - page_reads[static_cast<int>(IoPurpose::kUserRead)];
}

uint64_t IoCounters::InternalWrites() const {
  return TotalWrites() - page_writes[static_cast<int>(IoPurpose::kUserWrite)];
}

IoCounters IoCounters::operator-(const IoCounters& other) const {
  IoCounters out;
  for (int i = 0; i < kNumIoPurposes; ++i) {
    out.page_reads[i] = page_reads[i] - other.page_reads[i];
    out.page_writes[i] = page_writes[i] - other.page_writes[i];
    out.spare_reads[i] = spare_reads[i] - other.spare_reads[i];
    out.erases[i] = erases[i] - other.erases[i];
  }
  out.logical_writes = logical_writes - other.logical_writes;
  out.logical_reads = logical_reads - other.logical_reads;
  out.logical_trims = logical_trims - other.logical_trims;
  return out;
}

IoCounters& IoCounters::operator+=(const IoCounters& other) {
  for (int i = 0; i < kNumIoPurposes; ++i) {
    page_reads[i] += other.page_reads[i];
    page_writes[i] += other.page_writes[i];
    spare_reads[i] += other.spare_reads[i];
    erases[i] += other.erases[i];
  }
  logical_writes += other.logical_writes;
  logical_reads += other.logical_reads;
  logical_trims += other.logical_trims;
  return *this;
}

double IoCounters::WriteAmplification(double delta) const {
  if (logical_writes == 0) return 0.0;
  double internal = static_cast<double>(InternalWrites()) +
                    static_cast<double>(InternalReads()) / delta;
  return internal / static_cast<double>(logical_writes);
}

double IoCounters::WriteAmplificationFor(IoPurpose p, double delta) const {
  if (logical_writes == 0) return 0.0;
  int i = static_cast<int>(p);
  double writes = static_cast<double>(page_writes[i]);
  double reads = static_cast<double>(page_reads[i]);
  if (p == IoPurpose::kUserWrite) {
    // The application's own page write is not internal IO.
    writes = 0;
  }
  return (writes + reads / delta) / static_cast<double>(logical_writes);
}

std::string IoCounters::DebugString() const {
  std::ostringstream os;
  os << "logical_writes=" << logical_writes
     << " logical_reads=" << logical_reads
     << " logical_trims=" << logical_trims;
  for (int i = 0; i < kNumIoPurposes; ++i) {
    if (page_reads[i] == 0 && page_writes[i] == 0 && spare_reads[i] == 0 &&
        erases[i] == 0) {
      continue;
    }
    os << "\n  " << IoPurposeName(static_cast<IoPurpose>(i))
       << ": reads=" << page_reads[i] << " writes=" << page_writes[i]
       << " spare_reads=" << spare_reads[i] << " erases=" << erases[i];
  }
  return os.str();
}

}  // namespace gecko
