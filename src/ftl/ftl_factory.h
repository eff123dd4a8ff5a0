// The five FTLs of Section 5.3 by name: the one factory benches,
// examples and name-parameterized tests share.

#ifndef GECKOFTL_FTL_FTL_FACTORY_H_
#define GECKOFTL_FTL_FTL_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "flash/flash_device.h"
#include "ftl/ftl.h"
#include "ftl/ftl_config.h"

namespace gecko {

/// The five FTLs, in the order comparisons print them.
inline constexpr const char* kFtlNames[] = {"GeckoFTL", "DFTL", "LazyFTL",
                                            "uFTL", "IB-FTL"};

/// FTL `name`'s DefaultConfig for a mapping cache of `cache` entries.
FtlConfig DefaultFtlConfig(const std::string& name, uint32_t cache);

/// Builds FTL `name` on `device`.
std::unique_ptr<Ftl> MakeFtl(const std::string& name, FlashDevice* device,
                             const FtlConfig& config);

}  // namespace gecko

#endif  // GECKOFTL_FTL_FTL_FACTORY_H_
