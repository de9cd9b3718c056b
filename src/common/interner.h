#ifndef SWIM_COMMON_INTERNER_H_
#define SWIM_COMMON_INTERNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"

namespace swim {

/// Sentinel id for "no string" (e.g. a job with no output path).
inline constexpr uint32_t kNoStringId = 0xffffffffu;

/// Maps strings to dense uint32_t ids assigned in first-appearance order,
/// so interning the same sequence always yields the same ids — the
/// determinism anchor that lets id-keyed analyses stay byte-identical at
/// any thread count (ids are assigned during the single-threaded trace
/// index build, never in worker threads).
///
/// Interned bytes live in an internal arena; the string_views returned by
/// NameOf() and held as map keys stay valid until Clear()/destruction,
/// regardless of how many strings are added.
class StringInterner {
 public:
  StringInterner() = default;
  StringInterner(StringInterner&&) noexcept = default;
  StringInterner& operator=(StringInterner&&) noexcept = default;
  // Copies re-intern every name into a fresh arena (map keys must point
  // into the copy's own storage); ids are preserved exactly.
  StringInterner(const StringInterner& other);
  StringInterner& operator=(const StringInterner& other);

  /// Returns the id for `text`, assigning the next dense id (== size()
  /// before the call) on first appearance.
  uint32_t Intern(std::string_view text);

  /// Returns the id for `text`, or kNoStringId when never interned.
  uint32_t Find(std::string_view text) const;

  /// The interned bytes for a valid id (0 <= id < size()).
  std::string_view NameOf(uint32_t id) const { return names_[id]; }

  /// Number of distinct strings interned.
  size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

  void Reserve(size_t distinct_strings);
  void Clear();

 private:
  std::string_view CopyToArena(std::string_view text);

  static constexpr size_t kBlockBytes = 1 << 16;

  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t block_used_ = 0;
  size_t block_capacity_ = 0;

  std::vector<std::string_view> names_;          // id -> arena bytes
  FlatHashMap<std::string_view, uint32_t> ids_;  // arena bytes -> id
};

}  // namespace swim

#endif  // SWIM_COMMON_INTERNER_H_
