// Shared helpers for FTL-level tests: the FTL factory with a config tweak
// and a shadow-map harness that verifies end-to-end data integrity.

#ifndef GECKOFTL_TESTS_FTL_FTL_TEST_UTIL_H_
#define GECKOFTL_TESTS_FTL_FTL_TEST_UTIL_H_

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "flash/flash_device.h"
#include "ftl/baseline_ftls.h"
#include "ftl/ftl_factory.h"
#include "ftl/gecko_ftl.h"
#include "sim/ftl_experiment.h"

namespace gecko {

inline Geometry FtlTestGeometry(uint32_t num_channels = 1) {
  Geometry g;
  g.num_blocks = 96;
  g.pages_per_block = 16;
  g.page_bytes = 512;  // 128 mapping entries / tpage, V ~ 83 gecko entries
  g.logical_ratio = 0.7;
  g.num_channels = num_channels;
  return g;
}

/// Parameter of the suites that run every FTL on both a serial and a
/// multi-channel device: (FTL name, channel count).
using FtlChannelParam = std::tuple<std::string, uint32_t>;

/// Fixture for those suites. Tests build their device from Geo() and
/// their FTL from FtlName().
class ChannelFtlTest : public ::testing::TestWithParam<FtlChannelParam> {
 protected:
  std::string FtlName() const { return std::get<0>(GetParam()); }
  uint32_t NumChannels() const { return std::get<1>(GetParam()); }
  Geometry Geo() const { return FtlTestGeometry(NumChannels()); }
};

inline std::string FtlChannelParamName(
    const ::testing::TestParamInfo<FtlChannelParam>& info) {
  std::string name = std::get<0>(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_ch" + std::to_string(std::get<1>(info.param));
}

/// Instantiates `suite` (a ChannelFtlTest) over all five FTLs, each on a
/// 1-channel and a 4-channel geometry.
#define GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(suite)                        \
  INSTANTIATE_TEST_SUITE_P(                                               \
      AllFtls, suite,                                                     \
      ::testing::Combine(::testing::Values("GeckoFTL", "DFTL", "LazyFTL", \
                                           "uFTL", "IB-FTL"),             \
                         ::testing::Values(1u, 4u)),                      \
      FtlChannelParamName)

/// Base seed for randomized (fuzz / crash-churn) tests. A GECKO_FUZZ_SEED
/// environment variable overrides the suite default, so a failure seen in
/// CI can be replayed exactly. Pair with GECKO_TRACE_FUZZ_SEED so the
/// active seed is printed when the test fails.
inline uint64_t FuzzSeed(uint64_t default_seed) {
  const char* env = std::getenv("GECKO_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return default_seed;
}

/// Records the active fuzz seed on the test scope: any assertion failure
/// below this line prints the seed and the rerun incantation.
#define GECKO_TRACE_FUZZ_SEED(seed)                    \
  SCOPED_TRACE(::testing::Message()                    \
               << "fuzz seed " << (seed)               \
               << " (rerun with GECKO_FUZZ_SEED=" << (seed) << ")")

/// Config mutation applied on top of an FTL's DefaultConfig (watermark /
/// maintenance overrides in the scheduler tests).
using ConfigTweak = std::function<void(FtlConfig&)>;

/// Builds any of the five FTLs by name, applying `tweak` to its default
/// config first.
inline std::unique_ptr<Ftl> MakeFtl(const std::string& name,
                                    FlashDevice* device,
                                    uint32_t cache_capacity,
                                    const ConfigTweak& tweak = ConfigTweak()) {
  FtlConfig config = DefaultFtlConfig(name, cache_capacity);
  if (tweak) tweak(config);
  return MakeFtl(name, device, config);
}

/// Shadow-map harness: every write is mirrored into a host map; Verify()
/// reads every written lpn back and compares tokens.
class ShadowHarness {
 public:
  ShadowHarness(Ftl* ftl, uint64_t num_lpns) : ftl_(ftl), num_lpns_(num_lpns) {}

  void Write(Lpn lpn) {
    uint64_t token = FtlExperiment::Token(lpn, ++version_);
    Status s = ftl_->Write(lpn, token);
    ASSERT_TRUE(s.ok()) << s.ToString();
    shadow_[lpn] = token;
  }

  /// Submits one multi-extent write request, mirroring every extent.
  void WriteBatch(const std::vector<Lpn>& lpns) {
    IoRequest request(IoOp::kWrite);
    std::unordered_map<Lpn, uint64_t> tokens;
    for (Lpn lpn : lpns) {
      uint64_t token = FtlExperiment::Token(lpn, ++version_);
      request.Add(lpn, token);
      tokens[lpn] = token;  // duplicates: last writer wins, as in the FTL
    }
    IoResult result;
    Status s = ftl_->Submit(request, &result);
    ASSERT_TRUE(s.ok() && result.AllOk()) << result.FirstError().ToString();
    for (const auto& [lpn, token] : tokens) shadow_[lpn] = token;
  }

  void Trim(Lpn lpn) {
    Status s = ftl_->Trim(lpn);
    ASSERT_TRUE(s.ok()) << s.ToString();
    shadow_.erase(lpn);
  }

  void TrimBatch(const std::vector<Lpn>& lpns) {
    IoRequest request = IoRequest::Trim(lpns);
    IoResult result;
    Status s = ftl_->Submit(request, &result);
    ASSERT_TRUE(s.ok() && result.AllOk()) << result.FirstError().ToString();
    for (Lpn lpn : lpns) shadow_.erase(lpn);
  }

  /// Reads every trimmed-or-never-written lpn in [0, bound) and checks
  /// NotFound.
  void VerifyAbsent(Lpn bound) {
    for (Lpn lpn = 0; lpn < bound; ++lpn) {
      if (shadow_.count(lpn) != 0) continue;
      uint64_t got = 0;
      Status s = ftl_->Read(lpn, &got);
      ASSERT_EQ(s.code(), StatusCode::kNotFound)
          << ftl_->Name() << ": lpn " << lpn << " should be absent";
    }
  }

  void VerifyAll() {
    for (const auto& [lpn, token] : shadow_) {
      uint64_t got = 0;
      Status s = ftl_->Read(lpn, &got);
      ASSERT_TRUE(s.ok()) << ftl_->Name() << ": read(" << lpn
                          << "): " << s.ToString();
      ASSERT_EQ(got, token) << ftl_->Name() << ": wrong data for lpn " << lpn;
    }
  }

  void VerifySample(Rng& rng, int count) {
    if (shadow_.empty()) return;
    std::vector<Lpn> keys;
    keys.reserve(shadow_.size());
    for (const auto& [lpn, token] : shadow_) keys.push_back(lpn);
    for (int i = 0; i < count; ++i) {
      Lpn lpn = keys[rng.Uniform(keys.size())];
      uint64_t got = 0;
      Status s = ftl_->Read(lpn, &got);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(got, shadow_[lpn]) << ftl_->Name() << " lpn " << lpn;
    }
  }

  uint64_t num_lpns() const { return num_lpns_; }
  size_t written() const { return shadow_.size(); }

 private:
  Ftl* ftl_;
  uint64_t num_lpns_;
  uint64_t version_ = 0;
  std::unordered_map<Lpn, uint64_t> shadow_;
};

}  // namespace gecko

#endif  // GECKOFTL_TESTS_FTL_FTL_TEST_UTIL_H_
