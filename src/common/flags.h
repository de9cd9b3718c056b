#ifndef SWIM_COMMON_FLAGS_H_
#define SWIM_COMMON_FLAGS_H_

#include <charconv>
#include <concepts>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"

/// The command-line grammar of every tool and bench main (DESIGN.md
/// "Command line"). A flag is `--name value` or `--name=value`, anywhere;
/// a valueless flag takes neither. Other arguments fill the declared
/// positionals in order. Every error is an InvalidArgument whose message
/// starts with the flag's or positional's name, or quotes the argument.
namespace swim::flags {

/// Parses `value` into a destination. The parser prefixes an error's
/// message with the argument's name.
using Setter = std::function<Status(std::string_view value)>;

/// Parses all of `text` as a base-10 integer in [lo, the largest Int]: no
/// whitespace, no '+', no '-' for unsigned types.
template <std::integral Int>
Status ParseInt(
    std::string_view text, Int* out,
    std::type_identity_t<Int> lo = std::numeric_limits<Int>::min()) {
  Int value{};
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error == std::errc() && end == last && value >= lo) {
    *out = value;
    return Status::Ok();
  }
  return InvalidArgumentError(
      "needs an integer in [" + std::to_string(lo) + ", " +
      std::to_string(std::numeric_limits<Int>::max()) + "], got '" +
      std::string(text) + "'");
}

/// Parses all of `text` as a finite double: nan, inf and overflow fail.
Status ParseFinite(std::string_view text, double* out);

/// A setter for a comma list: calls `each` on every element, and refuses
/// an empty one.
Setter CommaList(Setter each);

class FlagSet {
 public:
  /// Declares the flag "--name", or the next positional: "<name>" is
  /// required, "[name]" optional and after the required ones. A bool
  /// destination makes a valueless flag; an integer one takes an optional
  /// lower bound.
  FlagSet& Add(std::string name, Setter set);
  FlagSet& Add(std::string name, bool* present);
  FlagSet& Add(std::string name, double* out);
  FlagSet& Add(std::string name, std::string* out);
  template <std::integral Int>
  FlagSet& Add(
      std::string name, Int* out,
      std::type_identity_t<Int> lo = std::numeric_limits<Int>::min()) {
    return Add(std::move(name), [out, lo](std::string_view value) {
      return ParseInt(value, out, lo);
    });
  }

  /// An enum, by the parser that maps its names.
  template <typename T>
  FlagSet& Add(std::string name, T* out,
               StatusOr<T> (*parse)(std::string_view name)) {
    return Add(std::move(name), [out, parse](std::string_view value) {
      StatusOr<T> parsed = parse(value);
      if (parsed.ok()) *out = *parsed;
      return parsed.status();
    });
  }

  /// Parses argv[1, argc), stopping at the first error; argv[0] names the
  /// program or subcommand.
  Status Parse(int argc, const char* const* argv) const;

 private:
  struct Arg {
    std::string name;
    Setter set;
    bool* present = nullptr;  // instead of `set`, for a valueless flag
  };
  std::vector<Arg> flags_;
  std::vector<Arg> positionals_;
};

/// Prints `status`'s message, then `usage`, to stderr; returns 2, the exit
/// code of every usage error.
int UsageError(const Status& status, std::string_view usage = {});

}  // namespace swim::flags

#endif  // SWIM_COMMON_FLAGS_H_
