#include "common/units.h"

#include <cmath>
#include <cstdio>

namespace swim {
namespace {

std::string FormatWithUnit(double value, const char* unit) {
  char buffer[64];
  if (value >= 100.0 || value == std::floor(value)) {
    std::snprintf(buffer, sizeof(buffer), "%.0f %s", value, unit);
  } else if (value >= 10.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1f %s", value, unit);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f %s", value, unit);
  }
  return buffer;
}

}  // namespace

std::string FormatBytes(double bytes) {
  if (bytes == 0.0) bytes = 0.0;  // -0.0 prints as "0 B", not "-0 B"
  if (bytes < 0) return "-" + FormatBytes(-bytes);
  if (bytes >= kEB) return FormatWithUnit(bytes / kEB, "EB");
  if (bytes >= kPB) return FormatWithUnit(bytes / kPB, "PB");
  if (bytes >= kTB) return FormatWithUnit(bytes / kTB, "TB");
  if (bytes >= kGB) return FormatWithUnit(bytes / kGB, "GB");
  if (bytes >= kMB) return FormatWithUnit(bytes / kMB, "MB");
  if (bytes >= kKB) return FormatWithUnit(bytes / kKB, "KB");
  return FormatWithUnit(bytes, "B");
}

std::string FormatDuration(double seconds) {
  if (seconds == 0.0) seconds = 0.0;  // -0.0 prints as "0 sec"
  if (seconds < 0) return "-" + FormatDuration(-seconds);
  if (seconds >= kDay) return FormatWithUnit(seconds / kDay, "days");
  if (seconds >= kHour) return FormatWithUnit(seconds / kHour, "hrs");
  if (seconds >= kMinute) return FormatWithUnit(seconds / kMinute, "min");
  return FormatWithUnit(seconds, "sec");
}

std::string FormatCount(uint64_t count) {
  std::string digits = std::to_string(count);
  std::string result;
  int position = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it, ++position) {
    if (position > 0 && position % 3 == 0) result.push_back(',');
    result.push_back(*it);
  }
  return std::string(result.rbegin(), result.rend());
}

}  // namespace swim
