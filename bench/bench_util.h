// The harness every bench binary shares, plus the PVM experiment helpers.
//
// Each bench regenerates the rows/series of one paper figure or table (or
// one of the repo's own claims) and prints a qualitative "paper vs
// measured" check. Absolute numbers come from scaled-down simulations
// (the shapes are what must hold); RAM/recovery figures are evaluated
// from the analytic models at paper scale, as in the paper itself. See
// docs/BENCHMARKS.md.

#ifndef GECKOFTL_BENCH_BENCH_UTIL_H_
#define GECKOFTL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "flash/flash_device.h"
#include "flash/simple_allocator.h"
#include "ftl/baseline_ftls.h"
#include "ftl/ftl.h"
#include "ftl/ftl_factory.h"
#include "ftl/gecko_ftl.h"
#include "pvm/flash_pvb.h"
#include "pvm/gecko_store.h"
#include "pvm/ram_pvb.h"
#include "sim/pvm_driver.h"
#include "util/check.h"
#include "util/table_printer.h"
#include "workload/workload.h"

namespace gecko {
namespace bench {

// --- Harness --------------------------------------------------------------

/// printf into a string.
template <typename... Args>
std::string Printf(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

/// `text` as a JSON string.
inline std::string Quote(const std::string& text) { return "\"" + text + "\""; }

/// One printed value: an integer, a real or a text. Format() prints it
/// through a printf format whose conversion fits it: "%llu" for an
/// integer, %f or %g for a real, %s for a text.
class Cell {
 public:
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Cell(T value) : kind_('u'), int_(static_cast<unsigned long long>(value)) {}
  Cell(double value) : kind_('f'), real_(value) {}
  Cell(std::string value) : kind_('s'), text_(std::move(value)) {}
  Cell(const char* value) : Cell(std::string(value)) {}

  std::string Format(const char* fmt) const {
    const char* conv = std::strchr(fmt, '%');
    GECKO_CHECK(conv != nullptr) << fmt;
    conv += 1 + std::strspn(conv + 1, "0123456789.");
    if (kind_ == 'u' && std::strncmp(conv, "llu", 3) == 0) {
      return Printf(fmt, int_);
    }
    if (kind_ == 'f' && (*conv == 'f' || *conv == 'g')) {
      return Printf(fmt, real_);
    }
    GECKO_CHECK(kind_ == 's' && *conv == 's')
        << "format " << fmt << " does not fit a '" << kind_ << "' cell";
    return Printf(fmt, text_.c_str());
  }

 private:
  char kind_;  // 'u' integer, 'f' real, 's' text
  unsigned long long int_ = 0;
  double real_ = 0;
  std::string text_;
};

/// One JSON object on one line: (key, JSON text) fields in order.
using JsonObject = std::vector<std::pair<std::string, std::string>>;

/// A bench's machine-readable result, in the layout every BENCH_*.json
/// shares: header scalars (the first is "bench"), then named arrays of
/// one-line objects.
class JsonDoc {
 public:
  explicit JsonDoc(const std::string& bench) { Add("bench", "\"%s\"", bench); }

  /// Appends a header scalar printed through `fmt`.
  void Add(const std::string& key, const char* fmt, const Cell& value) {
    scalars_.emplace_back(key, value.Format(fmt));
  }
  /// Appends a named array.
  void AddArray(const std::string& name, std::vector<JsonObject> objects) {
    arrays_.emplace_back(name, std::move(objects));
  }

  std::string Render() const {
    std::string out = "{\n";
    for (const auto& [key, json] : scalars_) {
      out += "  \"" + key + "\": " + json + ",\n";
    }
    for (size_t a = 0; a < arrays_.size(); ++a) {
      const auto& [name, objects] = arrays_[a];
      out += "  \"" + name + "\": [\n";
      for (size_t i = 0; i < objects.size(); ++i) {
        std::string fields;
        for (const auto& [key, json] : objects[i]) {
          fields += (fields.empty() ? "\"" : ", \"") + key + "\": " + json;
        }
        out += "    {" + fields + (i + 1 < objects.size() ? "},\n" : "}\n");
      }
      out += a + 1 < arrays_.size() ? "  ],\n" : "  ]\n";
    }
    return out + "}\n";
  }

 private:
  JsonObject scalars_;
  std::vector<std::pair<std::string, std::vector<JsonObject>>> arrays_;
};

/// One output column of a bench's result rows, declared once: its table
/// header, its JSON key, the format of each, and the value. A column with
/// a null header is JSON-only; one with a null key is table-only.
template <typename Row>
struct Column {
  const char* header;
  const char* key;
  const char* table_fmt;
  const char* json_fmt;
  std::function<Cell(const Row&)> value;
};

/// Prints `rows` as a table of the columns that have a header or, when
/// `only` is non-empty, of the columns with those headers.
template <typename Row>
void PrintTable(const std::vector<Column<Row>>& columns,
                std::span<const std::type_identity_t<Row>> rows,
                const std::vector<std::string>& only = {}) {
  std::vector<const Column<Row>*> shown;
  for (const Column<Row>& c : columns) {
    if (c.header == nullptr) continue;
    bool listed = only.empty();
    for (const std::string& h : only) listed = listed || h == c.header;
    if (listed) shown.push_back(&c);
  }
  std::vector<std::string> header;
  for (const Column<Row>* c : shown) header.push_back(c->header);
  TablePrinter table(std::move(header));
  for (const Row& row : rows) {
    std::vector<std::string> cells;
    for (const Column<Row>* c : shown) {
      cells.push_back(c->value(row).Format(c->table_fmt));
    }
    table.AddRow(std::move(cells));
  }
  table.Print();
}

/// The JSON objects of `rows`: one per row, one field per column with a
/// key.
template <typename Row>
std::vector<JsonObject> JsonRows(
    const std::vector<Column<Row>>& columns,
    std::span<const std::type_identity_t<Row>> rows) {
  std::vector<JsonObject> objects;
  for (const Row& row : rows) {
    JsonObject object;
    for (const Column<Row>& c : columns) {
      if (c.key != nullptr) {
        object.emplace_back(c.key, c.value(row).Format(c.json_fmt));
      }
    }
    objects.push_back(std::move(object));
  }
  return objects;
}

/// The command line and verdicts of one bench binary. main() builds one
/// from its arguments, reports every claim through Check(), and returns
/// ExitCode().
class Harness {
 public:
  /// Flags a bench accepts: --tiny (CI smoke scale) and --json PATH.
  enum Flags : unsigned { kNoFlags = 0, kTiny = 1, kJson = 2 };

  /// Parses the command line. An unknown or incomplete flag prints the
  /// usage and exits 2.
  Harness(int argc, char** argv, unsigned flags = kNoFlags) {
    for (int i = 1; i < argc; ++i) {
      if ((flags & kTiny) && std::strcmp(argv[i], "--tiny") == 0) {
        tiny_ = true;
      } else if ((flags & kJson) && std::strcmp(argv[i], "--json") == 0 &&
                 i + 1 < argc) {
        json_path_ = argv[++i];
      } else {
        std::fprintf(stderr, "usage: %s%s%s\n", argv[0],
                     flags & kTiny ? " [--tiny]" : "",
                     flags & kJson ? " [--json PATH]" : "");
        std::exit(2);
      }
    }
  }

  bool tiny() const { return tiny_; }

  /// Prints "[REPRODUCED] what" or "[MISMATCH] what" and records it.
  void Check(bool ok, const std::string& what) {
    std::printf("[%s] %s\n", ok ? "REPRODUCED" : "MISMATCH", what.c_str());
    if (!ok) ++mismatches_;
  }

  /// Writes `doc` to the --json path, if one was given.
  void WriteJson(const JsonDoc& doc) const {
    if (json_path_ == nullptr) return;
    std::FILE* f = std::fopen(json_path_, "w");
    GECKO_CHECK(f != nullptr) << "cannot open " << json_path_;
    std::fputs(doc.Render().c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path_);
  }

  /// The one exit rule: 1 if any check printed [MISMATCH], else 0. At
  /// --tiny scale the gates are advisory (invariants still CHECK).
  int ExitCode() const { return mismatches_ > 0 && !tiny_ ? 1 : 0; }

 private:
  bool tiny_ = false;
  const char* json_path_ = nullptr;
  int mismatches_ = 0;
};

// --- PVM experiments ------------------------------------------------------

/// Appends one row per FtlCounters field to `table` (two columns: name,
/// value), so benches can print batching efficacy alongside the IO
/// breakdown.
inline void AddFtlCounterRows(TablePrinter* table, const FtlCounters& c) {
  for (const FtlCounterField& f : kFtlCounterFields) {
    table->AddRow({f.name, TablePrinter::Fmt(c.*f.member)});
  }
}

/// Which page-validity scheme a stand-alone experiment drives.
enum class StoreKind { kRamPvb, kFlashPvb, kGecko };

inline const char* StoreName(StoreKind k) {
  switch (k) {
    case StoreKind::kRamPvb: return "RAM PVB";
    case StoreKind::kFlashPvb: return "flash PVB";
    case StoreKind::kGecko: return "Log. Gecko";
  }
  return "?";
}

/// Result of one Section 5.1/5.2-style run.
struct PvmRunResult {
  double pvm_wa = 0;        // WA contribution of the validity metadata
  uint64_t pvm_reads = 0;   // internal reads on the kPvm purpose
  uint64_t pvm_writes = 0;  // internal writes on the kPvm purpose
  uint64_t updates = 0;     // logical updates measured
  uint64_t gc_queries = 0;  // GC operations during measurement
  double ram_bytes = 0;     // store's integrated-RAM footprint
  /// Flash reads per GC query, measured by direct probe queries after the
  /// run (isolated from the update-path reads).
  double reads_per_query = 0;
  /// Per-interval (reads, writes) on the kPvm purpose.
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
};

struct PvmRunOptions {
  uint64_t updates = 60000;
  uint64_t interval = 10000;  // Figure 9 uses 10k-write windows
  uint64_t seed = 42;
  double delta = 10.0;
};

/// Runs `kind` under uniformly random updates on `geometry` and measures
/// the validity-metadata IO (fill phase excluded). One sixth of the
/// device hosts the metadata region (generous; real devices need ~0.01%).
inline PvmRunResult RunPvmExperiment(StoreKind kind, const Geometry& geometry,
                                     const LogGeckoConfig& gecko_config,
                                     const PvmRunOptions& options = {}) {
  uint32_t pvm_blocks = geometry.num_blocks / 6;
  if (pvm_blocks < 16) pvm_blocks = 16;
  uint32_t user_blocks = geometry.num_blocks - pvm_blocks;

  FlashDevice device(geometry);
  SimpleAllocator allocator(&device, user_blocks, pvm_blocks);
  std::unique_ptr<PageValidityStore> store;
  switch (kind) {
    case StoreKind::kRamPvb:
      store = std::make_unique<RamPvb>(geometry);
      break;
    case StoreKind::kFlashPvb:
      store = std::make_unique<FlashPvb>(geometry, &device, &allocator);
      break;
    case StoreKind::kGecko:
      store = std::make_unique<GeckoStore>(geometry, gecko_config, &device,
                                           &allocator);
      break;
  }

  PvmDriver driver(&device, store.get(), user_blocks,
                   geometry.logical_ratio);
  driver.Fill();

  UniformWorkload workload(driver.num_lpns(), options.seed);
  IoCounters before = device.stats().Snapshot();
  uint64_t gc_before = driver.gc_operations();

  PvmRunResult result;
  uint64_t remaining = options.updates;
  IoCounters window_start = before;
  while (remaining > 0) {
    uint64_t chunk = remaining < options.interval ? remaining : options.interval;
    driver.RunUpdates(chunk, workload);
    IoCounters now = device.stats().Snapshot();
    IoCounters w = now - window_start;
    result.intervals.emplace_back(w.ReadsFor(IoPurpose::kPvm),
                                  w.WritesFor(IoPurpose::kPvm));
    window_start = now;
    remaining -= chunk;
  }

  IoCounters delta = device.stats().Snapshot() - before;
  result.pvm_wa = delta.WriteAmplificationFor(IoPurpose::kPvm, options.delta);
  result.pvm_reads = delta.ReadsFor(IoPurpose::kPvm);
  result.pvm_writes = delta.WritesFor(IoPurpose::kPvm);
  result.updates = delta.logical_writes;
  result.gc_queries = driver.gc_operations() - gc_before;
  result.ram_bytes = static_cast<double>(store->RamBytes());

  // Isolate the per-query read cost with direct probes.
  const uint64_t kProbes = 256;
  Rng rng(options.seed + 1);
  IoCounters probe_before = device.stats().Snapshot();
  for (uint64_t i = 0; i < kProbes; ++i) {
    store->QueryInvalidPages(static_cast<BlockId>(rng.Uniform(user_blocks)));
  }
  IoCounters probe = device.stats().Snapshot() - probe_before;
  result.reads_per_query =
      static_cast<double>(probe.ReadsFor(IoPurpose::kPvm)) / kProbes;
  return result;
}

/// Standard simulation geometry for the PVM experiments.
inline Geometry PvmBenchGeometry(uint32_t num_blocks = 1024,
                                 uint32_t pages_per_block = 64,
                                 uint32_t page_bytes = 2048) {
  Geometry g;
  g.num_blocks = num_blocks;
  g.pages_per_block = pages_per_block;
  g.page_bytes = page_bytes;
  g.logical_ratio = 0.7;
  return g;
}

inline void PrintHeader(const char* title, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper's claim: %s\n", claim);
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace gecko

#endif  // GECKOFTL_BENCH_BENCH_UTIL_H_
