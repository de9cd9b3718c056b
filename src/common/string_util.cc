#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace swim {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string result(text);
  for (char& c : result) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return result;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string FirstWordOfJobName(std::string_view job_name) {
  std::string word;
  for (char c : job_name) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      word.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!word.empty()) {
      break;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      // Names that begin with digits (timestamps etc.) still have their
      // first alphabetic word extracted after the digits, so keep scanning.
      continue;
    }
  }
  return word;
}

bool ParseDouble(std::string_view text, double* value) {
  const std::string_view field = StripWhitespace(text);
  if (field.empty()) return false;
  // Fast path: from_chars rounds exactly as strtod does but needs no
  // NUL-terminated copy. It is taken only when it reads the whole field
  // without error and the value is finite; anything else (a '+' sign, hex,
  // inf/nan, a range error, junk) goes to strtod below, so the accepted
  // strings and every parsed bit are those of strtod alone.
  double fast = 0.0;
  const char* last = field.data() + field.size();
  const auto [end_fast, error] = std::from_chars(field.data(), last, fast);
  if (error == std::errc() && end_fast == last && std::isfinite(fast)) {
    *value = fast;
    return true;
  }
  std::string buffer(field);
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return false;
  // ERANGE with an infinite result is a genuine overflow; ERANGE with a
  // finite result is gradual underflow to a subnormal (e.g. 5e-324), which
  // must parse so extreme doubles round-trip through CSV.
  if (errno != 0 && (errno != ERANGE || !std::isfinite(parsed))) return false;
  *value = parsed;
  return true;
}

bool ParseInt64(std::string_view text, int64_t* value) {
  const std::string_view field = StripWhitespace(text);
  if (field.empty()) return false;
  // Fast path as in ParseDouble: from_chars accepts only [-]digits in
  // range, which strtoll reads identically; the rest goes to strtoll.
  int64_t fast = 0;
  const char* last = field.data() + field.size();
  const auto [end_fast, error] = std::from_chars(field.data(), last, fast);
  if (error == std::errc() && end_fast == last) {
    *value = fast;
    return true;
  }
  std::string buffer(field);
  errno = 0;
  char* end = nullptr;
  long long parsed = std::strtoll(buffer.c_str(), &end, 10);
  if (errno != 0 || end != buffer.c_str() + buffer.size()) return false;
  *value = parsed;
  return true;
}

}  // namespace swim
