#include "common/huge_pages.h"

#include <sys/mman.h>

#include <cstdint>

namespace swim {

void AdviseHugePages(void* data, size_t bytes) {
#if defined(MADV_HUGEPAGE)
  // madvise needs page-aligned bounds; only whole huge pages can be backed
  // by one, so round inward to them.
  const uintptr_t begin = reinterpret_cast<uintptr_t>(data);
  const uintptr_t first = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const uintptr_t last = (begin + bytes) & ~(kHugePageBytes - 1);
  if (data != nullptr && last > first) {
    madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace swim
