// Index-addressed pool of reused records: a warm pool hands back a record
// released earlier, so steady-state use allocates nothing. Records live
// behind unique_ptrs, so their addresses stay stable while the pool grows
// (a callback may submit, growing the pool, while its own record is still
// being read); the pool never shrinks. Not thread-safe: a pool shared
// across threads is guarded by its owner's mutex.

#ifndef GECKOFTL_UTIL_POOL_H_
#define GECKOFTL_UTIL_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace gecko {

template <typename T>
struct Pool {
  std::vector<std::unique_ptr<T>> items;
  std::vector<uint32_t> free;

  /// A free record's index; grows the pool only when none is free.
  uint32_t Acquire() {
    if (free.empty()) {
      items.push_back(std::make_unique<T>());
      // Room for every record to come back: Release never allocates.
      free.reserve(items.size());
      return static_cast<uint32_t>(items.size() - 1);
    }
    const uint32_t i = free.back();
    free.pop_back();
    return i;
  }
  void Release(uint32_t i) { free.push_back(i); }
  T& operator[](uint32_t i) { return *items[i]; }
  const T& operator[](uint32_t i) const { return *items[i]; }
};

}  // namespace gecko

#endif  // GECKOFTL_UTIL_POOL_H_
