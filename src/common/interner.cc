#include "common/interner.h"

#include <algorithm>
#include <cstring>

namespace swim {

StringInterner::StringInterner(const StringInterner& other) {
  Reserve(other.size());
  for (std::string_view name : other.names_) Intern(name);
}

StringInterner& StringInterner::operator=(const StringInterner& other) {
  if (this == &other) return *this;
  Clear();
  Reserve(other.size());
  for (std::string_view name : other.names_) Intern(name);
  return *this;
}

uint32_t StringInterner::Intern(std::string_view text) {
  auto it = ids_.find(text);
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(names_.size());
  std::string_view stored = CopyToArena(text);
  names_.push_back(stored);
  ids_.TryEmplace(stored, id);
  return id;
}

uint32_t StringInterner::Find(std::string_view text) const {
  auto it = ids_.find(text);
  return it != ids_.end() ? it->second : kNoStringId;
}

void StringInterner::Reserve(size_t distinct_strings) {
  names_.reserve(distinct_strings);
  ids_.reserve(distinct_strings);
}

void StringInterner::Clear() {
  blocks_.clear();
  block_used_ = 0;
  block_capacity_ = 0;
  names_.clear();
  ids_.clear();
}

std::string_view StringInterner::CopyToArena(std::string_view text) {
  if (text.empty()) return std::string_view("", 0);
  if (block_capacity_ == 0 ||
      text.size() > block_capacity_ - block_used_) {
    size_t block_bytes = std::max(text.size(), kBlockBytes);
    blocks_.push_back(std::make_unique<char[]>(block_bytes));
    block_used_ = 0;
    block_capacity_ = block_bytes;
  }
  char* destination = blocks_.back().get() + block_used_;
  std::memcpy(destination, text.data(), text.size());
  block_used_ += text.size();
  return std::string_view(destination, text.size());
}

}  // namespace swim
