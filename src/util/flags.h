// Command-line value parsing shared by the daemons.

#ifndef VUVUZELA_SRC_UTIL_FLAGS_H_
#define VUVUZELA_SRC_UTIL_FLAGS_H_

#include <cmath>
#include <cstdlib>

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

}  // namespace vuvuzela::util

#endif  // VUVUZELA_SRC_UTIL_FLAGS_H_
