#ifndef SWIM_COMMON_STRING_UTIL_H_
#define SWIM_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace swim {

/// Splits `text` at every occurrence of `delimiter`. Adjacent delimiters
/// produce empty fields; the result always has (number of delimiters + 1)
/// entries.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Joins `parts` with `delimiter` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delimiter);

/// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

/// ASCII lowercase copy.
std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Extracts the leading alphabetic word of a job name, lowercased - the
/// tokenization the paper applies in section 6.1 ("we focus on the first
/// word of job names, ignoring any capitalization, numbers, or other
/// symbols"). Returns an empty string when the name contains no letters
/// before the first separator.
std::string FirstWordOfJobName(std::string_view job_name);

/// Parses a double, requiring the whole string (less surrounding ASCII
/// whitespace) be consumed. Accepts exactly what strtod accepts, with its
/// bits: signs, hex, inf/nan, and gradual underflow; overflow fails.
bool ParseDouble(std::string_view text, double* value);

/// Parses a signed 64-bit integer, requiring the whole string (less
/// surrounding ASCII whitespace) be consumed. Accepts exactly what
/// strtoll(base 10) accepts; out-of-range values fail.
bool ParseInt64(std::string_view text, int64_t* value);

}  // namespace swim

#endif  // SWIM_COMMON_STRING_UTIL_H_
