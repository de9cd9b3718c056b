#include "common/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace swim::flags {

Status ParseFinite(std::string_view text, double* out) {
  double value = 0.0;
  if (!ParseDouble(text, &value) || !std::isfinite(value)) {
    return InvalidArgumentError("needs a finite number, got '" +
                                std::string(text) + "'");
  }
  *out = value;
  return Status::Ok();
}

Setter CommaList(Setter each) {
  return [each = std::move(each)](std::string_view text) -> Status {
    for (const std::string& element : Split(text, ',')) {
      if (element.empty()) {
        return InvalidArgumentError("has an empty list element in '" +
                                    std::string(text) + "'");
      }
      SWIM_RETURN_IF_ERROR(each(element));
    }
    return Status::Ok();
  };
}

FlagSet& FlagSet::Add(std::string name, Setter set) {
  (name.starts_with("--") ? flags_ : positionals_)
      .push_back({std::move(name), std::move(set)});
  return *this;
}

FlagSet& FlagSet::Add(std::string name, bool* present) {
  flags_.push_back({std::move(name), nullptr, present});
  return *this;
}

FlagSet& FlagSet::Add(std::string name, double* out) {
  return Add(std::move(name), [out](std::string_view value) {
    return ParseFinite(value, out);
  });
}

FlagSet& FlagSet::Add(std::string name, std::string* out) {
  return Add(std::move(name), [out](std::string_view value) {
    out->assign(value);
    return Status::Ok();
  });
}

Status FlagSet::Parse(int argc, const char* const* argv) const {
  const auto set = [](const Arg& arg, std::string_view value) {
    Status status = arg.set(value);
    return status.ok() ? status
                       : InvalidArgumentError(arg.name + " " + status.message());
  };
  size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view text = argv[i];
    if (!text.starts_with("--")) {
      if (next_positional == positionals_.size()) {
        return InvalidArgumentError("unexpected argument '" +
                                    std::string(text) + "'");
      }
      SWIM_RETURN_IF_ERROR(set(positionals_[next_positional++], text));
      continue;
    }
    const size_t eq = text.find('=');
    const bool has_value = eq != std::string_view::npos;
    const auto flag = std::ranges::find(flags_, text.substr(0, eq), &Arg::name);
    if (flag == flags_.end()) {
      return InvalidArgumentError(std::string(text.substr(0, eq)) +
                                  " is not a flag here");
    }
    if (flag->present != nullptr && has_value) {
      return InvalidArgumentError(flag->name + " takes no value, got '" +
                                  std::string(text.substr(eq + 1)) + "'");
    }
    if (flag->present != nullptr) {
      *flag->present = true;
    } else if (!has_value && i + 1 == argc) {
      return InvalidArgumentError(flag->name + " needs a value");
    } else {
      SWIM_RETURN_IF_ERROR(
          set(*flag, has_value ? text.substr(eq + 1) : argv[++i]));
    }
  }
  if (next_positional < positionals_.size() &&
      positionals_[next_positional].name.starts_with('<')) {
    return InvalidArgumentError(positionals_[next_positional].name +
                                " is missing");
  }
  return Status::Ok();
}

int UsageError(const Status& status, std::string_view usage) {
  std::fprintf(stderr, "%s\n%.*s", status.message().c_str(),
               static_cast<int>(usage.size()), usage.data());
  return 2;
}

}  // namespace swim::flags
