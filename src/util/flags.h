// Command-line value parsing shared by the daemons.

#ifndef VUVUZELA_SRC_UTIL_FLAGS_H_
#define VUVUZELA_SRC_UTIL_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace vuvuzela::util {

// Parses all of `text` as a finite, non-negative number. False on an empty
// value, trailing garbage, a negative number, NaN or infinity: a noise or
// budget flag that parsed as 0 (or overflowed to infinity) would silently
// weaken privacy instead of failing.
inline bool ParseNonNegative(const char* text, double* out) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    return false;
  }
  *out = value;
  return true;
}

// Parses all of `text` as a decimal integer of at most `max` (and at most
// what T holds). False on an empty value, a sign or leading space, trailing
// garbage, overflow, or a value above `max`: bare strtoul reads "two" as 0
// and "1x" as 1, and a cast to uint32_t turns 4294967297 into 1, so a
// mistyped --position or --shard would start a daemon in the wrong place.
template <typename T>
bool ParseUnsigned(const char* text, uint64_t max, T* out) {
  static_assert(std::is_integral_v<T>);
  if (text[0] < '0' || text[0] > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value > max ||
      value > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

}  // namespace vuvuzela::util

#endif  // VUVUZELA_SRC_UTIL_FLAGS_H_
