#ifndef SWIM_COMMON_STATUSOR_H_
#define SWIM_COMMON_STATUSOR_H_

#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/status.h"

namespace swim {

/// Holds either a value of type T or a non-OK Status explaining why the
/// value is absent. Accessing the value of an errored StatusOr is a fatal
/// programmer error (CHECK failure), mirroring absl::StatusOr.
template <typename T>
class StatusOr {
 public:
  /// Constructs from an error status. `status` must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    SWIM_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }

  /// Constructs from a value; the resulting StatusOr is OK.
  StatusOr(T value)  // NOLINT
      : status_(Status::Ok()), value_(std::move(value)) {}

  StatusOr(const StatusOr&) = default;
  StatusOr& operator=(const StatusOr&) = default;
  StatusOr(StatusOr&&) = default;
  StatusOr& operator=(StatusOr&&) = default;

  bool ok() const { return status_.ok(); }

  const Status& status() const& { return status_; }
  Status status() && { return std::move(status_); }

  const T& value() const& {
    SWIM_CHECK(ok()) << "value() on errored StatusOr: " << status_;
    return *value_;
  }
  T& value() & {
    SWIM_CHECK(ok()) << "value() on errored StatusOr: " << status_;
    return *value_;
  }
  T value() && {
    SWIM_CHECK(ok()) << "value() on errored StatusOr: " << status_;
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `*std::move(status_or)` moves the value out instead of copying it.
  T operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value, or `fallback` when errored.
  T value_or(T fallback) const& { return ok() ? *value_ : fallback; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace swim

#endif  // SWIM_COMMON_STATUSOR_H_
