#ifndef SWIM_COMMON_HUGE_PAGES_H_
#define SWIM_COMMON_HUGE_PAGES_H_

#include <cstddef>
#include <vector>

namespace swim {

/// Huge-page size the advice below targets (x86-64 and arm64 default).
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// Asks the kernel to back the whole 2 MiB pages inside [data, data +
/// bytes) with transparent huge pages (madvise(MADV_HUGEPAGE)). Advisory
/// only: where the platform does not offer them, or refuses, the memory
/// works the same with 4 KiB pages. Call it before the first touch - a
/// page already faulted in stays small. One 2 MiB fault instead of 512
/// small ones is what keeps filling a fresh 35 MB row array at memory
/// speed.
void AdviseHugePages(void* data, size_t bytes);

/// Reserves room for `count` elements and advises huge pages for it; the
/// caller then resizes or appends into the advised buffer.
template <typename T, typename Alloc>
void ReserveHugePages(std::vector<T, Alloc>& values, size_t count) {
  values.reserve(count);
  AdviseHugePages(values.data(), values.capacity() * sizeof(T));
}

}  // namespace swim

#endif  // SWIM_COMMON_HUGE_PAGES_H_
