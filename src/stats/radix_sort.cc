#include "stats/radix_sort.h"

#include <bit>
#include <cstddef>
#include <cstdint>

namespace swim::stats {
namespace {

constexpr int kDigitBits = 11;
constexpr int kPasses = (64 + kDigitBits - 1) / kDigitBits;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// Maps a double to an unsigned key with the same order: negatives have
/// every bit flipped, non-negatives only the sign bit.
uint64_t KeyOf(double value) {
  if (value == 0.0) value = 0.0;  // -0.0 sorts (and comes back) as +0.0
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double ValueOf(uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit
                                                     : ~key);
}

}  // namespace

void RadixSortDoubles(std::vector<double>* values) {
  const size_t n = values->size();
  if (n < 2) return;
  std::vector<uint64_t> keys(n);
  std::vector<uint64_t> scratch(n);
  // One histogram per pass, all filled in the key-building pass.
  std::vector<size_t> counts(kPasses * kBuckets, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = KeyOf((*values)[i]);
    keys[i] = key;
    for (int pass = 0; pass < kPasses; ++pass) {
      ++counts[pass * kBuckets + ((key >> (pass * kDigitBits)) & (kBuckets - 1))];
    }
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    size_t* count = &counts[pass * kBuckets];
    const int shift = pass * kDigitBits;
    if (count[(keys[0] >> shift) & (kBuckets - 1)] == n) continue;
    size_t offset = 0;
    for (size_t bucket = 0; bucket < kBuckets; ++bucket) {
      const size_t here = count[bucket];
      count[bucket] = offset;
      offset += here;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = keys[i];
      scratch[count[(key >> shift) & (kBuckets - 1)]++] = key;
    }
    keys.swap(scratch);
  }
  for (size_t i = 0; i < n; ++i) (*values)[i] = ValueOf(keys[i]);
}

}  // namespace swim::stats
