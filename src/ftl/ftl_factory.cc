#include "ftl/ftl_factory.h"

#include "ftl/baseline_ftls.h"
#include "ftl/gecko_ftl.h"
#include "util/check.h"

namespace gecko {

FtlConfig DefaultFtlConfig(const std::string& name, uint32_t cache) {
  if (name == "GeckoFTL") return GeckoFtl::DefaultConfig(cache);
  if (name == "DFTL") return DftlFtl::DefaultConfig(cache);
  if (name == "LazyFTL") return LazyFtl::DefaultConfig(cache);
  if (name == "uFTL") return MuFtl::DefaultConfig(cache);
  GECKO_CHECK(name == "IB-FTL") << "unknown FTL " << name;
  return IbFtl::DefaultConfig(cache);
}

std::unique_ptr<Ftl> MakeFtl(const std::string& name, FlashDevice* device,
                             const FtlConfig& config) {
  if (name == "GeckoFTL") return std::make_unique<GeckoFtl>(device, config);
  if (name == "DFTL") return std::make_unique<DftlFtl>(device, config);
  if (name == "LazyFTL") return std::make_unique<LazyFtl>(device, config);
  if (name == "uFTL") return std::make_unique<MuFtl>(device, config);
  GECKO_CHECK(name == "IB-FTL") << "unknown FTL " << name;
  return std::make_unique<IbFtl>(device, config);
}

}  // namespace gecko
